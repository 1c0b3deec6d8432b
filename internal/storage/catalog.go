package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
)

// The array catalog: the persistent registry a resident Panda service
// (pandad) keeps of every array it has ever created — its name and its
// full encoded schema pair, the "tiny schema description" a master
// server needs to serve an array. The catalog is what lets a client
// session open an array by name long after the session that created it
// disconnected, and what lets a restarted daemon re-serve its arrays
// after a crash. It records what an array *is*, never what is on disk:
// the commit decision records say which epoch is committed, and each
// server's manifests say what that server holds.
//
// Durability uses the same discipline as the epoch manifests: the file
// is a CRC32C-guarded record written with WriteFileAtomic, so a crash
// mid-update leaves either the old catalog or the new one, and a torn
// or bit-rotted file is detected at load rather than silently trusted.

// CatalogFileName is the catalog's file name on the master server's
// disk. The scrubber classifies it as a legacy (non-epoch) file, so a
// catalog never trips fsck.
const CatalogFileName = "panda.catalog"

// catalogMagic marks a catalog file: "PCAT".
const catalogMagic = 0x50434154

// CatalogEntry records one array. Catalogs written with more fields
// (an epoch, owners, an element size, a fingerprint) still load: the
// decoder drops them, and Spec carries everything they duplicated.
type CatalogEntry struct {
	// Name is the array name, unique in the catalog.
	Name string `json:"name"`
	// Spec is the full encoded ArraySpec (core wire schema format),
	// kept opaque here so the storage layer stays protocol-free.
	Spec []byte `json:"spec"`
}

// Catalog is the in-memory catalog bound to its backing disk. All
// methods are safe for concurrent use; every mutation persists before
// returning.
type Catalog struct {
	mu      sync.Mutex
	disk    Disk
	entries map[string]CatalogEntry
}

// LoadCatalog opens (or implicitly creates) the catalog on d. Only a
// missing file yields an empty catalog; one that is present but cannot
// be read, or is corrupt, is an error, never silently discarded.
func LoadCatalog(d Disk) (*Catalog, error) {
	c := &Catalog{disk: d, entries: make(map[string]CatalogEntry)}
	data, err := readFile(d, CatalogFileName)
	if errors.Is(err, fs.ErrNotExist) {
		return c, nil // absent: fresh catalog
	}
	if err != nil {
		return nil, fmt.Errorf("storage: catalog: %w", err)
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("storage: catalog: truncated header (%d bytes)", len(data))
	}
	if m := binary.BigEndian.Uint32(data[0:]); m != catalogMagic {
		return nil, fmt.Errorf("storage: catalog: bad magic %#x", m)
	}
	sum := binary.BigEndian.Uint32(data[4:])
	n := binary.BigEndian.Uint32(data[8:])
	if int(n) != len(data)-12 {
		return nil, fmt.Errorf("storage: catalog: length %d, have %d payload bytes", n, len(data)-12)
	}
	payload := data[12:]
	if got := CRC32C(payload); got != sum {
		return nil, fmt.Errorf("storage: catalog: CRC mismatch (stored %#x, computed %#x)", sum, got)
	}
	var list []CatalogEntry
	if err := json.Unmarshal(payload, &list); err != nil {
		return nil, fmt.Errorf("storage: catalog: %w", err)
	}
	for _, e := range list {
		c.entries[e.Name] = e
	}
	return c, nil
}

// Get returns the entry for name.
func (c *Catalog) Get(name string) (CatalogEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	return e, ok
}

// Add catalogues e unless its name is already taken, persisting the
// catalog, and returns the entry now catalogued under the name: e, or
// the one that was there. Checking and creating under one lock is what
// lets two sessions race to create one name and see one winner.
func (c *Catalog) Add(e CatalogEntry) (CatalogEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[e.Name]; ok {
		return old, nil
	}
	c.entries[e.Name] = e
	if err := c.save(); err != nil {
		delete(c.entries, e.Name)
		return CatalogEntry{}, err
	}
	return e, nil
}

// Entries returns every entry, sorted by name.
func (c *Catalog) Entries() []CatalogEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CatalogEntry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of catalogued arrays.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// save persists the catalog under c.mu: magic + CRC32C + length header,
// JSON payload sorted by name, atomic replace.
func (c *Catalog) save() error {
	list := make([]CatalogEntry, 0, len(c.entries))
	for _, e := range c.entries {
		list = append(list, e)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	payload, err := json.Marshal(list)
	if err != nil {
		return err
	}
	buf := make([]byte, 12+len(payload))
	binary.BigEndian.PutUint32(buf[0:], catalogMagic)
	binary.BigEndian.PutUint32(buf[4:], CRC32C(payload))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(payload)))
	copy(buf[12:], payload)
	return WriteFileAtomic(c.disk, CatalogFileName, buf)
}
