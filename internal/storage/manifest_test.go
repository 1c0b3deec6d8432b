package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// mkManifest builds a manifest over data with one sub-chunk CRC per
// subBytes extent, as the server engine does while retiring sub-chunks.
func mkManifest(server int, epoch uint64, data []byte, subBytes int) *Manifest {
	m := &Manifest{
		Version: ManifestVersion, Array: "state", Suffix: ".ckpt",
		Server: server, Epoch: epoch, SchemaSum: 0xfeed,
		TotalBytes: int64(len(data)),
		Chunks:     []ManifestChunk{{ChunkIdx: server, Offset: 0, Bytes: int64(len(data))}},
	}
	for off := 0; off < len(data); off += subBytes {
		end := off + subBytes
		if end > len(data) {
			end = len(data)
		}
		m.Subs = append(m.Subs, ManifestSub{Offset: int64(off), Bytes: int64(end - off), CRC: CRC32C(data[off:end])})
	}
	return m
}

// writeEpochFiles stages one PREPARED epoch: temp data, sync, temp manifest.
func writeEpochFiles(t *testing.T, d Disk, base string, epoch uint64, data []byte) *Manifest {
	t.Helper()
	f, err := d.Create(EpochName(base, epoch))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m := mkManifest(0, epoch, data, 4)
	if err := WriteManifest(d, EpochManifestName(base, epoch), m); err != nil {
		t.Fatal(err)
	}
	return m
}

func readAll(t *testing.T, d Disk, name string) []byte {
	t.Helper()
	data, err := readFile(d, name)
	if err != nil {
		t.Fatalf("reading %s: %v", name, err)
	}
	return data
}

func TestManifestRoundTrip(t *testing.T) {
	d := NewMemDisk()
	m := mkManifest(2, 7, []byte("abcdefghij"), 4)
	m.Degraded = true
	if err := WriteManifest(d, "state.ckpt.2.mfst", m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(d, "state.ckpt.2.mfst")
	if err != nil {
		t.Fatal(err)
	}
	if got.Array != "state" || got.Suffix != ".ckpt" || got.Server != 2 ||
		got.Epoch != 7 || got.SchemaSum != 0xfeed || !got.Degraded ||
		got.TotalBytes != 10 || len(got.Chunks) != 1 || len(got.Subs) != 3 {
		t.Fatalf("round trip mangled manifest: %+v", got)
	}
	// A future-versioned manifest must be rejected, not misread.
	m.Version = ManifestVersion + 1
	if err := WriteManifest(d, "v.mfst", m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(d, "v.mfst"); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestEpochNaming(t *testing.T) {
	base := "state.ckpt.3"
	name := EpochName(base, 12)
	p := parseName(name)
	if p.kind != epochExt || p.base != base || p.epoch != 12 {
		t.Fatalf("parseName(%q) = %+v", name, p)
	}
	if p := parseName(base); p.kind == epochExt {
		t.Fatalf("plain name %q parsed as epoch", base)
	}
	if p := parseName("x.ea1"); p.kind == epochExt {
		t.Fatal("non-numeric epoch accepted")
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	d := NewMemDisk()
	if err := WriteFileAtomic(d, "f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(d, "f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, d, "f"); string(got) != "new" {
		t.Fatalf("got %q", got)
	}
	names, _ := d.List()
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("scratch file %s left behind", n)
		}
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	d := NewMemDisk()
	if _, ok, err := ReadDecision(d, "state.ckpt"); ok || err != nil {
		t.Fatalf("absent decision: ok=%v err=%v", ok, err)
	}
	if err := WriteDecision(d, "state.ckpt", 5); err != nil {
		t.Fatal(err)
	}
	e, ok, err := ReadDecision(d, "state.ckpt")
	if err != nil || !ok || e != 5 {
		t.Fatalf("got %d, %v, %v", e, ok, err)
	}
}

func TestVerifyDataDetectsCorruption(t *testing.T) {
	d := NewMemDisk()
	data := []byte("abcdefghijkl")
	base := "state.ckpt.0"
	m := writeEpochFiles(t, d, base, 1, data)
	name := EpochName(base, 1)
	if err := VerifyData(d, name, m); err != nil {
		t.Fatalf("clean data failed verify: %v", err)
	}
	// Flip one byte.
	f, _ := d.Open(name)
	f.WriteAt([]byte{'X'}, 6)
	f.Close()
	if err := VerifyData(d, name, m); err == nil {
		t.Fatal("bit flip not detected")
	}
	// Short file.
	short := mkManifest(0, 1, append(data, "more"...), 4)
	if err := VerifyData(d, name, short); err == nil || !strings.Contains(err.Error(), "holds") {
		t.Fatalf("short file not detected: %v", err)
	}
}

func TestCommitEpochPromotesAndRetainsPrev(t *testing.T) {
	d := NewMemDisk()
	base := "state.ckpt.0"
	writeEpochFiles(t, d, base, 1, []byte("epoch-one!!!"))
	if err := CommitEpoch(d, base, 1); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, d, base); string(got) != "epoch-one!!!" {
		t.Fatalf("committed data = %q", got)
	}
	m, err := ReadManifest(d, ManifestName(base))
	if err != nil || m.Epoch != 1 {
		t.Fatalf("committed manifest: %+v, %v", m, err)
	}

	writeEpochFiles(t, d, base, 2, []byte("epoch-two!!!"))
	if err := CommitEpoch(d, base, 2); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, d, base); string(got) != "epoch-two!!!" {
		t.Fatalf("committed data = %q", got)
	}
	if got := readAll(t, d, PrevName(base)); string(got) != "epoch-one!!!" {
		t.Fatalf("prev data = %q", got)
	}
	pm, err := ReadManifest(d, ManifestName(PrevName(base)))
	if err != nil || pm.Epoch != 1 {
		t.Fatalf("prev manifest: %+v, %v", pm, err)
	}
	names, _ := d.List()
	for _, n := range names {
		if parseName(n).kind == epochExt {
			t.Fatalf("temp epoch file %s survived commit", n)
		}
	}
}

// A commit removes, by name, what the epoch before it left staged — the
// one temp it can supersede — and leaves older strays to Scrub.
func TestCommitEpochSweepsStaleTemps(t *testing.T) {
	d := NewMemDisk()
	base := "state.ckpt.0"
	writeEpochFiles(t, d, base, 1, []byte("older stray "))
	writeEpochFiles(t, d, base, 2, []byte("stale epoch "))
	writeEpochFiles(t, d, base, 3, []byte("fresh epoch "))
	if err := WriteDecision(d, "state.ckpt", 3); err != nil {
		t.Fatal(err)
	}
	if err := CommitEpoch(d, base, 3); err != nil {
		t.Fatal(err)
	}
	if Exists(d, EpochName(base, 2)) || Exists(d, EpochManifestName(base, 2)) {
		t.Fatal("stale epoch 2 temps not removed by the commit that superseded them")
	}
	if !Exists(d, EpochName(base, 1)) {
		t.Fatal("commit removed a temp it has no name for: it must not list")
	}
	rep, err := Scrub([]Disk{d}, true)
	if err != nil {
		t.Fatalf("scrub over an older stray: %v\n%v", err, rep)
	}
	if Exists(d, EpochName(base, 1)) || Exists(d, EpochManifestName(base, 1)) {
		t.Fatalf("scrub left the older stray:\n%v", rep)
	}
}

func TestRollForwardEveryCrashWindow(t *testing.T) {
	data := []byte("the decided epoch bytes!")
	for _, window := range []string{"nothing-renamed", "data-renamed", "fully-committed"} {
		t.Run(window, func(t *testing.T) {
			d := NewMemDisk()
			base := "state.ckpt.0"
			writeEpochFiles(t, d, base, 1, []byte("previously committed writ"))
			if err := CommitEpoch(d, base, 1); err != nil {
				t.Fatal(err)
			}
			writeEpochFiles(t, d, base, 2, data)
			switch window {
			case "data-renamed":
				// Crash mid-commit: prev retained and data promoted,
				// but the manifest rename never happened.
				_ = d.Rename(ManifestName(base), ManifestName(PrevName(base)))
				_ = d.Rename(base, PrevName(base))
				if err := d.Rename(EpochName(base, 2), base); err != nil {
					t.Fatal(err)
				}
			case "fully-committed":
				if err := CommitEpoch(d, base, 2); err != nil {
					t.Fatal(err)
				}
			}
			c, err := RollForward(d, base, 2)
			if err != nil {
				t.Fatalf("%s: %v", window, err)
			}
			m := c.Manifest
			if m.Epoch != 2 {
				t.Fatalf("%s: rolled to epoch %d", window, m.Epoch)
			}
			if got := readAll(t, d, base); !bytes.Equal(got, data) {
				t.Fatalf("%s: data = %q", window, got)
			}
			fm, err := ReadManifest(d, ManifestName(base))
			if err != nil || fm.Epoch != 2 {
				t.Fatalf("%s: final manifest %+v, %v", window, fm, err)
			}
		})
	}
}

func TestRollForwardRefusesCorruptEpoch(t *testing.T) {
	d := NewMemDisk()
	base := "state.ckpt.0"
	writeEpochFiles(t, d, base, 1, []byte("good bytes here!"))
	f, _ := d.Open(EpochName(base, 1))
	f.WriteAt([]byte("BAD"), 4)
	f.Close()
	if _, err := RollForward(d, base, 1); err == nil {
		t.Fatal("corrupt epoch rolled forward")
	}
}

func TestTornSyncLosesTailOfLastWrite(t *testing.T) {
	fd := &FaultDisk{Inner: NewMemDisk()}
	fd.ArmTornSync()
	f, err := fd.Create("victim")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 64)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("torn sync must lie, got %v", err)
	}
	f.Close()
	if fd.TornSyncs() != 1 {
		t.Fatalf("TornSyncs = %d", fd.TornSyncs())
	}
	got := readAll(t, fd.Inner, "victim")
	if !bytes.Equal(got[:32], payload[:32]) {
		t.Fatal("head of write damaged")
	}
	if !bytes.Equal(got[32:], make([]byte, 32)) {
		t.Fatal("tail of write survived a torn sync")
	}
	// The arming is one-shot.
	f2, _ := fd.Create("second")
	f2.WriteAt(payload, 0)
	f2.Sync()
	f2.Close()
	if got := readAll(t, fd.Inner, "second"); !bytes.Equal(got, payload) {
		t.Fatal("second sync also torn")
	}
}

func TestScrubCleanDirectoryIsQuiet(t *testing.T) {
	d0, d1 := NewMemDisk(), NewMemDisk()
	for i, d := range []Disk{d0, d1} {
		base := fmt.Sprintf("state.ckpt.%d", i)
		writeEpochFiles(t, d, base, 1, []byte("committed payload"))
		if err := CommitEpoch(d, base, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteDecision(d0, "state.ckpt", 1); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub([]Disk{d0, d1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Issues) != 0 || rep.Manifests != 2 {
		t.Fatalf("clean dir scrub: %+v", rep)
	}
}

func TestScrubSweepsUncommittedDebris(t *testing.T) {
	d := NewMemDisk()
	base := "state.ckpt.0"
	writeEpochFiles(t, d, base, 1, []byte("committed payload"))
	if err := CommitEpoch(d, base, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteDecision(d, "state.ckpt", 1); err != nil {
		t.Fatal(err)
	}
	// Crash debris: a never-decided epoch 2, a torn prepare (data, no
	// manifest), and an atomic-write scratch file.
	writeEpochFiles(t, d, base, 2, []byte("never committed!!"))
	f, _ := d.Create("other.ckpt.0.e9")
	f.WriteAt([]byte("torn"), 0)
	f.Close()
	f, _ = d.Create("junk.mfst.tmp")
	f.Close()

	rep, err := Scrub([]Disk{d}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("-check must pass on crash debris: %+v", rep.Issues)
	}
	if len(rep.Issues) != 3 {
		t.Fatalf("want 3 warnings, got %+v", rep.Issues)
	}

	rep, err = Scrub([]Disk{d}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 3 {
		t.Fatalf("repair removed %d, want 3: %+v", rep.Removed, rep.Issues)
	}
	rep, _ = Scrub([]Disk{d}, false)
	if len(rep.Issues) != 0 {
		t.Fatalf("debris survived repair: %+v", rep.Issues)
	}
	if got := readAll(t, d, base); string(got) != "committed payload" {
		t.Fatalf("repair damaged committed data: %q", got)
	}
}

func TestScrubRollsForwardInterruptedCommit(t *testing.T) {
	d := NewMemDisk()
	base := "state.ckpt.0"
	writeEpochFiles(t, d, base, 1, []byte("the decided bytes"))
	// Decision stamped, crash before any rename: temps + decision only.
	if err := WriteDecision(d, "state.ckpt", 1); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub([]Disk{d}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("-check must pass on an interrupted commit: %+v", rep.Issues)
	}
	rep, err = Scrub([]Disk{d}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledForward != 1 {
		t.Fatalf("RolledForward = %d: %+v", rep.RolledForward, rep.Issues)
	}
	if got := readAll(t, d, base); string(got) != "the decided bytes" {
		t.Fatalf("rolled-forward data = %q", got)
	}
	m, err := ReadManifest(d, ManifestName(base))
	if err != nil || m.Epoch != 1 {
		t.Fatalf("manifest after roll-forward: %+v, %v", m, err)
	}
}

func TestScrubRollsBackTornCommittedEpoch(t *testing.T) {
	// Two servers; epoch 1 then epoch 2 commit on both; then server 0's
	// media turns out to have lied about epoch 2 (torn sync discovered
	// at scrub time). Repair must fall the whole key back to epoch 1.
	d0, d1 := NewMemDisk(), NewMemDisk()
	disks := []Disk{d0, d1}
	for i, d := range disks {
		base := fmt.Sprintf("state.ckpt.%d", i)
		writeEpochFiles(t, d, base, 1, []byte("epoch one server "+fmt.Sprint(i)))
		if err := CommitEpoch(d, base, 1); err != nil {
			t.Fatal(err)
		}
		writeEpochFiles(t, d, base, 2, []byte("epoch TWO server "+fmt.Sprint(i)))
		if err := CommitEpoch(d, base, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteDecision(d0, "state.ckpt", 2); err != nil {
		t.Fatal(err)
	}
	// Tear server 0's committed epoch-2 bytes behind the manifest's back.
	f, _ := d0.Open("state.ckpt.0")
	f.WriteAt(make([]byte, 8), 9)
	f.Close()

	rep, err := Scrub(disks, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("-check must fail on a torn committed epoch")
	}

	rep, err = Scrub(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack != 1 {
		t.Fatalf("RolledBack = %d: %+v", rep.RolledBack, rep.Issues)
	}
	e, ok, err := ReadDecision(d0, "state.ckpt")
	if err != nil || !ok || e != 1 {
		t.Fatalf("decision after rollback: %d, %v, %v", e, ok, err)
	}
	// Server 0 was physically rolled back to epoch 1 under the plain name.
	if got := readAll(t, d0, "state.ckpt.0"); string(got) != "epoch one server 0" {
		t.Fatalf("server 0 data after rollback: %q", got)
	}
	m, err := ReadManifest(d0, "state.ckpt.0.mfst")
	if err != nil || m.Epoch != 1 {
		t.Fatalf("server 0 manifest after rollback: %+v, %v", m, err)
	}
	// Server 1 keeps its (healthy) epoch 2 final; its epoch 1 lives in
	// .prev, which is what the decided epoch now resolves to.
	pm, err := ReadManifest(d1, "state.ckpt.1.prev.mfst")
	if err != nil || pm.Epoch != 1 {
		t.Fatalf("server 1 prev manifest: %+v, %v", pm, err)
	}
	rep, err = Scrub(disks, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("scrub after rollback repair: %+v", rep.Issues)
	}
}

func TestScrubUnrecoverableWithoutPrior(t *testing.T) {
	d := NewMemDisk()
	base := "state.ckpt.0"
	writeEpochFiles(t, d, base, 1, []byte("the only epoch"))
	if err := CommitEpoch(d, base, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteDecision(d, "state.ckpt", 1); err != nil {
		t.Fatal(err)
	}
	f, _ := d.Open(base)
	f.WriteAt([]byte("XX"), 4)
	f.Close()
	rep, err := Scrub([]Disk{d}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.RolledBack != 0 {
		t.Fatalf("first-epoch corruption must be unrecoverable: %+v", rep)
	}
}

// TestScrubSkipsVacantSlots: an elastic pool hands Scrub a disk slice
// with nil entries (vacant slots, remote members' disks); the scrub
// must skip them rather than crash, and still judge the real disks.
func TestScrubSkipsVacantSlots(t *testing.T) {
	d0 := NewMemDisk()
	d2 := NewMemDisk()
	// A committed file on the master disk: data + matching manifest +
	// decision record, exactly what a clean commit leaves behind.
	base, data := "A.0", []byte{1, 2, 3, 4}
	if err := WriteFileAtomic(d0, base, data); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		Version: ManifestVersion, Array: "A", Server: 0, Epoch: 1,
		SchemaSum: 0xfeed, TotalBytes: int64(len(data)),
		Chunks: []ManifestChunk{{ChunkIdx: 0, Offset: 0, Bytes: int64(len(data))}},
		Subs:   []ManifestSub{{Offset: 0, Bytes: int64(len(data)), CRC: CRC32C(data)}},
	}
	if err := WriteManifest(d0, ManifestName(base), m); err != nil {
		t.Fatal(err)
	}
	if err := WriteDecision(d0, "A", 1); err != nil {
		t.Fatal(err)
	}

	rep, err := Scrub([]Disk{d0, nil, d2, nil}, true)
	if err != nil {
		t.Fatalf("Scrub with vacant slots: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scrub unhealthy: %+v", rep.Issues)
	}
	if rep.Manifests == 0 {
		t.Fatalf("scrub skipped the real disks too: %+v", rep)
	}
}

// FuzzReadManifest: a manifest is bytes off a disk, and the reader now
// plans from what it says. Arbitrary bytes must fail cleanly, never
// panic, and a manifest that is accepted must survive its own write and
// read unchanged, encoding to the same bytes both times.
func FuzzReadManifest(f *testing.F) {
	valid, _ := json.Marshal(&Manifest{Version: ManifestVersion, Array: "a", Suffix: ".ckpt", Server: 1,
		Epoch: 3, SchemaSum: 0xbeef, TotalBytes: 64, Degraded: true,
		Chunks: []ManifestChunk{{ChunkIdx: 1, Offset: 0, Bytes: 32}, {ChunkIdx: 3, Offset: 32, Bytes: 32}},
		Subs:   []ManifestSub{{Offset: 0, Bytes: 64, CRC: 7}}})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":1,"chunks":[],"subs":null}`))
	f.Add([]byte(`{"version":1,"epoch":-1}`))
	f.Add([]byte(`{"Version":1,"version":2}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewMemDisk()
		if err := WriteFileAtomic(d, "x.mfst", data); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(d, "x.mfst")
		if err != nil {
			return
		}
		if err := WriteManifest(d, "y.mfst", m); err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		back, err := ReadManifest(d, "y.mfst")
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("re-encoding changed the manifest:\n%+v\n%+v", m, back)
		}
		b1, _ := json.Marshal(m)
		b2, _ := json.Marshal(back)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encodings differ:\n%s\n%s", b1, b2)
		}
	})
}
