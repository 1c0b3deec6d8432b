package storage

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"regexp"
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
// retained one deep under a ".prev" suffix for Scrub: when the newest
// epoch fails verification on any disk, repair rolls the key's decision
// back to it. A read never falls back on its own — it serves ".prev"
// only once the decision names that epoch.
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
func ManifestName(base string) string { return base + ".mfst" }

// EpochName returns the temp data name of one epoch of a data file.
func EpochName(base string, epoch uint64) string {
	return fmt.Sprintf("%s.e%d", base, epoch)
}

// EpochManifestName returns the temp manifest name of one epoch.
func EpochManifestName(base string, epoch uint64) string {
	return ManifestName(EpochName(base, epoch))
}

// PrevName returns the retained previous-epoch data name.
func PrevName(base string) string { return base + ".prev" }

// DecisionName returns the master server's commit-record name for an
// array+suffix key (e.g. "state.ckpt").
func DecisionName(key string) string { return key + decisionExt }

// DecisionKey is DecisionName's inverse: the array+suffix key a
// commit-record name belongs to, and false for any other name.
func DecisionKey(name string) (string, bool) { return strings.CutSuffix(name, decisionExt) }

const decisionExt = ".decision"

// epochRe matches "<base>.e<digits>" temp data names.
var epochRe = regexp.MustCompile(`^(.*)\.e(\d+)$`)

// splitEpochName parses a temp data name into base and epoch.
func splitEpochName(name string) (base string, epoch uint64, ok bool) {
	m := epochRe.FindStringSubmatch(name)
	if m == nil {
		return "", 0, false
	}
	e, err := strconv.ParseUint(m[2], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return m[1], e, true
}

// --- small-file plumbing ------------------------------------------------

// WriteFileAtomic durably replaces name with data: write to a ".tmp"
// sibling, sync, close, rename. A crash leaves either the old file or
// the new one (plus, at worst, a ".tmp" leftover the scrubber sweeps).
func WriteFileAtomic(d Disk, name string, data []byte) error {
	tmp := name + ".tmp"
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
// decision record exists.
func ReadDecision(d Disk, key string) (epoch uint64, ok bool, err error) {
	data, rerr := readFile(d, DecisionName(key))
	if rerr != nil {
		return 0, false, nil // absent (or unreadable) record: no decision
	}
	var dec decision
	if err := json.Unmarshal(data, &dec); err != nil {
		return 0, false, fmt.Errorf("storage: decision %s: %w", key, err)
	}
	return dec.Epoch, true, nil
}

// --- verification -------------------------------------------------------

// VerifyData checks the named data file against a manifest: size and
// every sub-chunk CRC. It returns nil when the bytes on disk are
// exactly what the manifest promises.
func VerifyData(d Disk, name string, m *Manifest) error {
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

// CommitEpoch promotes a PREPARED epoch to committed: the current
// committed data+manifest (if any) move one deep to ".prev", the epoch
// temps rename onto the plain names, and whatever the epoch before it
// left staged is removed by name. Each rename is atomic; RollForward
// repairs any crash between them. A zero-byte epoch (a server that
// owned no chunks) has a manifest but may have no data file — only the
// manifest promotes.
func CommitEpoch(d Disk, base string, epoch uint64) error {
	tmpData := EpochName(base, epoch)
	tmpMfst := EpochManifestName(base, epoch)
	hasTmpData := Exists(d, tmpData)
	hasTmpMfst := Exists(d, tmpMfst)
	if !hasTmpData && !hasTmpMfst {
		return fmt.Errorf("storage: commit %s epoch %d: nothing prepared", base, epoch)
	}
	// Retain the outgoing epoch one deep — manifest first, then data,
	// so an interrupted retention never leaves a prev manifest claiming
	// bytes that are not there yet... a stale prev pair is debris the
	// scrubber clears, not a correctness hazard. Only a fully committed
	// pair is worth retaining.
	if hasTmpData && Exists(d, base) && Exists(d, ManifestName(base)) {
		_ = d.Rename(ManifestName(base), ManifestName(PrevName(base)))
		_ = d.Rename(base, PrevName(base))
	}
	if hasTmpData {
		if err := d.Rename(tmpData, base); err != nil {
			return err
		}
	}
	if hasTmpMfst {
		if err := d.Rename(tmpMfst, ManifestName(base)); err != nil {
			return err
		}
	}
	// Epochs are decided+1 and an aborted epoch N is re-staged as N
	// (Create truncates it), so the one temp this commit can supersede
	// is epoch-1's, left by a server that missed that commit. Any other
	// stray is Scrub's to find: the commit path lists nothing.
	RemoveEpoch(d, base, epoch-1)
	return nil
}

// RemoveEpoch scraps a PREPARED epoch that will never commit.
func RemoveEpoch(d Disk, base string, epoch uint64) {
	_ = d.Remove(EpochName(base, epoch))
	_ = d.Remove(EpochManifestName(base, epoch))
}

// RollForward completes an interrupted commit of the decided epoch and
// returns the committed manifest. It handles every crash window:
// nothing renamed yet (temps verify against temp data), data renamed
// but not the manifest (the temp manifest verifies against the final
// data), or fully committed already.
func RollForward(d Disk, base string, epoch uint64) (*Manifest, error) {
	if m, err := ReadManifest(d, ManifestName(base)); err == nil && m.Epoch == epoch {
		return m, nil // already committed
	}
	tm, err := ReadManifest(d, EpochManifestName(base, epoch))
	if err != nil {
		return nil, fmt.Errorf("storage: roll-forward %s epoch %d: no usable manifest: %w", base, epoch, err)
	}
	probe := EpochName(base, epoch)
	if !Exists(d, probe) {
		probe = base // data may already have its final name
	}
	if tm.TotalBytes > 0 {
		if verr := VerifyData(d, probe, tm); verr != nil {
			return nil, fmt.Errorf("storage: roll-forward %s epoch %d: %w", base, epoch, verr)
		}
	}
	if err := CommitEpoch(d, base, epoch); err != nil {
		return nil, err
	}
	return tm, nil
}

// Exists probes for a file without the Open error ceremony.
func Exists(d Disk, name string) bool {
	f, err := d.Open(name)
	if err != nil {
		return false
	}
	f.Close()
	return true
}
