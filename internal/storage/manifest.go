package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"strconv"
	"strings"
)

// Epoch manifests and atomic commit.
//
// Every collective write lands on each server as an *epoch*: the data
// goes to an epoch-suffixed temp file plus a small manifest describing
// exactly what the file must contain (schema fingerprint, chunk list,
// per-sub-chunk CRC32C, byte counts). After a Sync the epoch is
// PREPARED; committing it is a pair of renames — data, then manifest —
// so a crash at any instant leaves either the old committed epoch or
// the new one, never a torn mix. The previously committed epoch is
// retained one deep at rest under a ".prev" suffix for Scrub: when the
// newest epoch fails verification on any disk, repair rolls the key's
// decision back to it. A read never falls back on its own — it serves
// ".prev" only once the decision names that epoch. The retained file is
// also the next epoch's: a server that committed the newest epoch
// itself stages the one after it in the retained file (RecycleEpoch),
// overwriting blocks the file system already holds, so the commit's
// retention rename frees nothing. While that write is in flight, and
// after it aborts until the key's next successful write, the key has
// no ".prev" on that disk.
//
// On-disk naming, for a base file name like "state.ckpt.0":
//
//	state.ckpt.0            committed data (plain name: concatenation,
//	                        migration, and legacy readers keep working)
//	state.ckpt.0.mfst       committed manifest
//	state.ckpt.0.e7         epoch 7 temp data (PREPARED, not committed)
//	state.ckpt.0.e7.mfst    epoch 7 temp manifest
//	state.ckpt.0.prev       previously committed data (one deep)
//	state.ckpt.0.prev.mfst  its manifest
//	state.ckpt.decision     the master server's commit record for the
//	                        array+suffix key (master's disk only)
//	<anything>.tmp          atomic-write scratch; leftovers are debris
//
// The helpers below build these names and parseName is their one
// parser. Resolve is the one reading of them: which file holds a key's
// decided epoch on a disk. A collective read, RollForward, Scrub and
// the offline reader all ask it.

// crcTable is the Castagnoli polynomial — hardware-accelerated CRC32C.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the Castagnoli CRC of p.
func CRC32C(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// ManifestVersion identifies the manifest schema for forward evolution.
const ManifestVersion = 1

// ManifestChunk records one disk chunk stored in a server's file.
type ManifestChunk struct {
	// ChunkIdx is the chunk's index in the array's disk schema.
	ChunkIdx int `json:"chunk"`
	// Offset is the chunk's byte offset in this server's file.
	Offset int64 `json:"off"`
	// Bytes is the chunk's size.
	Bytes int64 `json:"bytes"`
}

// ManifestSub records the checksum of one sub-chunk-sized extent.
type ManifestSub struct {
	Offset int64  `json:"off"`
	Bytes  int64  `json:"bytes"`
	CRC    uint32 `json:"crc"`
}

// Manifest describes what one server's file of one array must contain
// for one epoch. It is written next to the epoch's data and promoted
// with it at commit.
type Manifest struct {
	Version int `json:"version"`
	// Array and Suffix identify the collective file set; Server is the
	// writing server's index.
	Array  string `json:"array"`
	Suffix string `json:"suffix"`
	Server int    `json:"server"`
	// Epoch is the commit epoch this manifest belongs to (first is 1).
	Epoch uint64 `json:"epoch"`
	// SchemaSum fingerprints the array's element size and disk schema;
	// a reader whose schema disagrees must not trust the chunk list.
	SchemaSum uint32 `json:"schema"`
	// TotalBytes is the data file's required size.
	TotalBytes int64 `json:"total"`
	// Degraded marks an epoch written with one or more servers dead:
	// this file may carry chunks reassigned from the dead servers.
	Degraded bool `json:"degraded,omitempty"`
	// Chunks lists the disk chunks in file order; Subs carries the
	// CRC32C of every sub-chunk extent, in file order.
	Chunks []ManifestChunk `json:"chunks"`
	Subs   []ManifestSub   `json:"subs"`
}

// --- naming -------------------------------------------------------------

// ManifestName returns the committed manifest name for a data file.
func ManifestName(base string) string { return base + manifestExt }

// EpochName returns the temp data name of one epoch of a data file.
func EpochName(base string, epoch uint64) string {
	return base + epochExt + strconv.FormatUint(epoch, 10)
}

// EpochManifestName returns the temp manifest name of one epoch.
func EpochManifestName(base string, epoch uint64) string {
	return ManifestName(EpochName(base, epoch))
}

// PrevName returns the retained previous-epoch data name.
func PrevName(base string) string { return base + prevExt }

// DecisionName returns the master server's commit-record name for an
// array+suffix key (e.g. "state.ckpt").
func DecisionName(key string) string { return key + decisionExt }

// DecisionKey is DecisionName's inverse: the array+suffix key a
// commit-record name belongs to, and false for any other name.
func DecisionKey(name string) (string, bool) { return strings.CutSuffix(name, decisionExt) }

// The suffixes of the grammar; a fileName's kind is the one that marks
// its slot ("" for the committed or legacy data file itself).
const (
	manifestExt = ".mfst"
	prevExt     = ".prev"
	epochExt    = ".e"
	decisionExt = ".decision"
	scratchExt  = ".tmp"
)

// fileName is one name of the grammar, parsed.
type fileName struct {
	key   string // the array+suffix key: base without its ".<server>"
	base  string // the data file the name belongs to; "" for a decision record
	kind  string // "", prevExt, epochExt, or scratchExt for a name's ".tmp" twin
	epoch uint64 // an epoch temp's epoch
	mfst  bool   // the manifest of that slot, not its data
}

// parseName is the grammar's one parser: it inverts the name helpers
// above. A name outside the grammar is a committed (legacy) data file.
func parseName(n string) fileName {
	if inner, ok := strings.CutSuffix(n, scratchExt); ok {
		p := parseName(inner)
		p.kind = scratchExt
		return p
	}
	if key, ok := DecisionKey(n); ok {
		return fileName{key: key}
	}
	var p fileName
	n, p.mfst = strings.CutSuffix(n, manifestExt)
	p.base = n
	if b, ok := strings.CutSuffix(n, prevExt); ok {
		p.base, p.kind = b, prevExt
	} else if i := strings.LastIndex(n, epochExt); i >= 0 {
		if e, err := strconv.ParseUint(n[i+len(epochExt):], 10, 64); err == nil {
			p.base, p.kind, p.epoch = n[:i], epochExt, e
		}
	}
	p.key = p.base
	if i := strings.LastIndexByte(p.base, '.'); i >= 0 {
		if _, err := strconv.ParseUint(p.base[i+1:], 10, 64); err == nil {
			p.key = p.base[:i]
		}
	}
	return p
}

// --- small-file plumbing ------------------------------------------------

// WriteFileAtomic durably replaces name with data: write to a ".tmp"
// sibling, sync, close, rename. A crash leaves either the old file or
// the new one (plus, at worst, a ".tmp" leftover the scrubber sweeps).
func WriteFileAtomic(d Disk, name string, data []byte) error {
	tmp := name + scratchExt
	f, err := d.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return d.Rename(tmp, name)
}

// readFile slurps one whole file.
func readFile(d Disk, name string) ([]byte, error) {
	f, err := d.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, sz)
	if sz > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// WriteManifest durably writes m under the given name.
func WriteManifest(d Disk, name string, m *Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return WriteFileAtomic(d, name, data)
}

// ReadManifest loads and structurally validates a manifest.
func ReadManifest(d Disk, name string) (*Manifest, error) {
	data, err := readFile(d, name)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: manifest %s: %w", name, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("storage: manifest %s: version %d, want %d", name, m.Version, ManifestVersion)
	}
	return &m, nil
}

// decision is the master server's durable commit record for one
// array+suffix key: the highest epoch ever decided committed.
type decision struct {
	Epoch uint64 `json:"epoch"`
}

// WriteDecision durably stamps epoch as decided for key. This is the
// linearization point of the two-phase commit: once the record is on
// the master's disk the epoch is committed, and recovery rolls the
// servers forward to it.
func WriteDecision(d Disk, key string, epoch uint64) error {
	data, err := json.Marshal(decision{Epoch: epoch})
	if err != nil {
		return err
	}
	return WriteFileAtomic(d, DecisionName(key), data)
}

// ReadDecision returns the decided epoch for key, or ok=false when no
// decision record exists. Only a record that is not there means "no
// decision": one that cannot be read or parsed is an error, because
// read as epoch 0 it would restart the key's epochs under the committed
// ones and serve every server's file as it stands.
func ReadDecision(d Disk, key string) (epoch uint64, ok bool, err error) {
	data, err := readFile(d, DecisionName(key))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	var dec decision
	if err == nil {
		err = json.Unmarshal(data, &dec)
	}
	if err != nil {
		return 0, false, fmt.Errorf("storage: decision %s: %w", key, err)
	}
	return dec.Epoch, true, nil
}

// --- verification -------------------------------------------------------

// VerifyData checks the named data file against a manifest: size and
// every sub-chunk CRC. It returns nil when the bytes on disk are
// exactly what the manifest promises; a manifest promising no bytes (a
// server that owned no chunks) holds with or without a file.
func VerifyData(d Disk, name string, m *Manifest) error {
	if m.TotalBytes == 0 {
		return nil
	}
	f, err := d.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	sz, err := f.Size()
	if err != nil {
		return err
	}
	if sz < m.TotalBytes {
		return fmt.Errorf("storage: %s holds %d bytes, manifest needs %d", name, sz, m.TotalBytes)
	}
	for _, sub := range m.Subs {
		buf := make([]byte, sub.Bytes)
		if _, err := f.ReadAt(buf, sub.Offset); err != nil {
			return fmt.Errorf("storage: %s: reading extent at %d: %w", name, sub.Offset, err)
		}
		if got := CRC32C(buf); got != sub.CRC {
			return fmt.Errorf("storage: %s: extent at %d: crc %08x, manifest says %08x",
				name, sub.Offset, got, sub.CRC)
		}
	}
	return nil
}

// --- commit and rollback ------------------------------------------------

// Staged is what committing one epoch of a data file acts on: which
// of its names exist. CommitEpoch finds it by probing (ProbeStaged); a
// server that committed the epoch before on this disk knows it without
// a probe and passes it to CommitStaged.
type Staged struct {
	// Data and Manifest report the epoch's temp data and temp manifest.
	Data, Manifest bool
	// Retain reports a committed pair, data and manifest, for the
	// commit to keep one deep under ".prev".
	Retain bool
	// Prior reports that a temp of the epoch before may remain, left by
	// a server that missed that commit.
	Prior bool
}

// ProbeStaged finds by looking what CommitStaged acts on. Epochs are
// decided+1, so epoch 1 has no epoch before it to leave a temp.
func ProbeStaged(d Disk, base string, epoch uint64) Staged {
	st := Staged{Data: Exists(d, EpochName(base, epoch)), Manifest: Exists(d, EpochManifestName(base, epoch))}
	st.Retain = st.Data && Exists(d, base) && Exists(d, ManifestName(base))
	st.Prior = epoch > 1
	return st
}

// CommitEpoch promotes a PREPARED epoch to committed: the current
// committed data+manifest (if any) move one deep to ".prev", the epoch
// temps rename onto the plain names, and whatever the epoch before it
// left staged is removed by name. Each rename is atomic; RollForward
// repairs any crash between them. A zero-byte epoch (a server that
// owned no chunks) has a manifest but may have no data file — only the
// manifest promotes.
func CommitEpoch(d Disk, base string, epoch uint64) error {
	_, err := CommitStaged(d, base, epoch, ProbeStaged(d, base, epoch))
	return err
}

// CommitStaged is CommitEpoch with st taken as what is on d instead of
// probed. It reports whether the commit moved a committed pair to
// ".prev": the pair a later staging of base may recycle (RecycleEpoch).
func CommitStaged(d Disk, base string, epoch uint64, st Staged) (retained bool, err error) {
	if !st.Data && !st.Manifest {
		return false, fmt.Errorf("storage: commit %s epoch %d: nothing prepared", base, epoch)
	}
	// Retain the outgoing epoch one deep — manifest first, then data,
	// so an interrupted retention never leaves a prev manifest claiming
	// bytes that are not there yet... a stale prev pair is debris the
	// scrubber clears, not a correctness hazard. Only a fully committed
	// pair is worth retaining. Where the staging recycled ".prev", both
	// renames land on empty slots and free nothing.
	if st.Retain {
		merr := d.Rename(ManifestName(base), ManifestName(PrevName(base)))
		retained = d.Rename(base, PrevName(base)) == nil && merr == nil
	}
	if st.Data {
		if err := d.Rename(EpochName(base, epoch), base); err != nil {
			return false, err
		}
	}
	if st.Manifest {
		if err := d.Rename(EpochManifestName(base, epoch), ManifestName(base)); err != nil {
			return false, err
		}
	}
	// Epochs are decided+1 and an aborted epoch N is re-staged as N
	// (Create truncates it), so the one temp this commit can supersede
	// is epoch-1's, left by a server that missed that commit. Any other
	// stray is Scrub's to find: the commit path lists nothing.
	if st.Prior {
		RemoveEpoch(d, base, epoch-1)
	}
	return retained, nil
}

// RecycleEpoch hands the retained previous epoch's data file to epoch
// as its temp, so staging the epoch overwrites blocks the file system
// already holds and the commit's retention rename frees none. The
// manifest goes first, as CommitStaged's retention orders it: a crash
// between the two leaves ".prev" data with no manifest, and a crash
// after them an undecided epoch temp — debris Scrub sweeps either way.
// Until the epoch commits the key has no ".prev", so only a caller that
// no longer needs it may recycle: never while it holds the decided
// epoch (after a Scrub roll-back).
func RecycleEpoch(d Disk, base string, epoch uint64) error {
	if err := d.Remove(ManifestName(PrevName(base))); err != nil {
		return err
	}
	return d.Rename(PrevName(base), EpochName(base, epoch))
}

// RemoveEpoch scraps a PREPARED epoch that will never commit.
func RemoveEpoch(d Disk, base string, epoch uint64) {
	_ = d.Remove(EpochName(base, epoch))
	_ = d.Remove(EpochManifestName(base, epoch))
}

// Committed is where one server's share of a key's decided epoch lives
// on that server's disk, as Resolve finds it.
type Committed struct {
	// Name is the file holding the share: the committed file, the
	// retained previous epoch, the decided epoch's data still under its
	// temp name (Pending), or a legacy manifest-less file. "" means the
	// server holds none of the decided epoch.
	Name string
	// Manifest describes Name; nil for a legacy file.
	Manifest *Manifest
	// Pending marks an interrupted commit: the decision is durable but
	// this server's renames were not done. RollForward's answer keeps it
	// set once it has done them, and names base.
	Pending bool
	// Stale, when Name is "", is the epoch the server's committed state
	// holds instead (0: it holds none). A server revived after missing
	// the decided epoch serves nothing rather than mixing epochs: the
	// survivors' degraded files carry its chunks.
	Stale uint64
}

// Resolve finds which file on d holds base at the decided epoch (0:
// nothing was ever decided, so the committed or legacy file is served
// as it stands). It only reads: an interrupted commit is reported
// Pending, its data verified against its manifest. The error is that
// check failing, or the pending manifest unreadable: the decided epoch
// cannot be finished from this disk. It is the one reading of a
// server's epoch files.
func Resolve(d Disk, base string, epoch uint64) (Committed, error) {
	m, merr := ReadManifest(d, ManifestName(base))
	if merr == nil && (epoch == 0 || m.Epoch == epoch) {
		return Committed{Name: base, Manifest: m}, nil
	}
	if tm := EpochManifestName(base, epoch); epoch > 0 && Exists(d, tm) {
		// The decided epoch's renames were interrupted. Its data is
		// under the temp name, or already under the final one; a server
		// that owned no chunks has none.
		c := Committed{Name: EpochName(base, epoch), Pending: true}
		if !Exists(d, c.Name) {
			c.Name = base
		}
		var err error
		if c.Manifest, err = ReadManifest(d, tm); err == nil {
			err = VerifyData(d, c.Name, c.Manifest)
		}
		if err != nil {
			return Committed{}, fmt.Errorf("storage: %s epoch %d: %w", base, epoch, err)
		}
		return c, nil
	}
	if epoch > 0 {
		// The retained previous epoch may be the decided one (Scrub
		// rolled the key back after finding the newest epoch torn).
		if pm, err := ReadManifest(d, ManifestName(PrevName(base))); err == nil && pm.Epoch == epoch {
			return Committed{Name: PrevName(base), Manifest: pm}, nil
		}
	}
	if merr == nil {
		// Committed state exists but predates (or postdates) the decided
		// epoch: a stale server.
		return Committed{Stale: m.Epoch}, nil
	}
	if !errors.Is(merr, fs.ErrNotExist) {
		// A committed manifest that cannot be read is not the absence of
		// one: what its file holds is unknown, so nothing is served.
		return Committed{}, fmt.Errorf("storage: %s: %w", base, merr)
	}
	if Exists(d, base) {
		return Committed{Name: base}, nil // legacy file, pre-manifest or despite a decision: serve it
	}
	return Committed{}, nil // nothing at all (e.g. dead during the epoch's write)
}

// RollForward is Resolve that finishes an interrupted commit of the
// decided epoch (CommitEpoch) before it answers.
func RollForward(d Disk, base string, epoch uint64) (Committed, error) {
	c, err := Resolve(d, base, epoch)
	if err == nil && c.Pending {
		if err = CommitEpoch(d, base, epoch); err == nil {
			c.Name = base
		}
	}
	return c, err
}

// Exists probes for a file without the Open error ceremony.
func Exists(d Disk, name string) bool {
	f, err := d.Open(name)
	if err == nil {
		f.Close()
	}
	return err == nil
}
