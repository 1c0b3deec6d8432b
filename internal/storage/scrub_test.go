package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// commitKey commits one epoch of data on every disk: "state.ckpt.<i>"
// per server, the decision on disk 0.
func commitKey(t *testing.T, disks []Disk, epoch uint64, data func(i int) []byte) {
	t.Helper()
	for i, d := range disks {
		base := fmt.Sprintf("state.ckpt.%d", i)
		writeEpochFiles(t, d, base, epoch, data(i))
		if err := CommitEpoch(d, base, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteDecision(disks[0], "state.ckpt", epoch); err != nil {
		t.Fatal(err)
	}
}

// A decision record that exists but cannot be read is not "no
// decision": read as epoch 0 it would serve every server's file as it
// stands.
func TestUnreadableDecisionRecordIsNotAbsent(t *testing.T) {
	d, err := NewOSDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commitKey(t, []Disk{d}, 1, func(int) []byte { return []byte("committed payload") })
	record := filepath.Join(d.Root(), DecisionName("state.ckpt"))
	if err := os.Remove(record); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(record, 0o755); err != nil {
		t.Fatal(err)
	}
	if e, ok, err := ReadDecision(d, "state.ckpt"); err == nil || ok {
		t.Fatalf("a directory as the decision record reads as epoch=%d ok=%v err=%v, want an error", e, ok, err)
	}
	rep, err := Scrub([]Disk{d}, true)
	if err != nil {
		t.Fatal(err)
	}
	reported := false
	for _, is := range rep.Issues {
		reported = reported || (is.Name == "state.ckpt.decision" && is.Severity == SevError)
	}
	if !reported || rep.OK() {
		t.Fatalf("scrub does not report the unreadable record: %+v", rep.Issues)
	}
	if rep.Removed+rep.RolledForward+rep.RolledBack != 0 {
		t.Fatalf("scrub repaired a key whose decision it cannot read: %+v", rep)
	}

	// A record whose open fails for any other reason is no absent record
	// either; only a missing one is.
	fd := &FaultDisk{Inner: NewMemDisk(), FailOpens: true}
	if _, ok, err := ReadDecision(fd, "state.ckpt"); !errors.Is(err, ErrInjected) || ok {
		t.Fatalf("failed open: ok=%v err=%v, want ErrInjected", ok, err)
	}
	if _, ok, err := ReadDecision(NewMemDisk(), "state.ckpt"); ok || err != nil {
		t.Fatalf("missing record: ok=%v err=%v, want absent", ok, err)
	}
}

// The data an interrupted commit already promoted is the pending
// epoch's, not a legacy file, in check mode and after repair.
func TestScrubCountsPromotedDataAsThePendingEpoch(t *testing.T) {
	d := NewMemDisk()
	base := "state.ckpt.0"
	commitKey(t, []Disk{d}, 1, func(int) []byte { return []byte("previously committed writ") })
	writeEpochFiles(t, d, base, 2, []byte("the decided epoch bytes!"))
	if err := WriteDecision(d, "state.ckpt", 2); err != nil {
		t.Fatal(err)
	}
	// TestRollForwardEveryCrashWindow's "data-renamed" window.
	_ = d.Rename(ManifestName(base), ManifestName(PrevName(base)))
	_ = d.Rename(base, PrevName(base))
	if err := d.Rename(EpochName(base, 2), base); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub([]Disk{d}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Legacy != 0 || !rep.OK() {
		t.Fatalf("check mode: Legacy=%d OK=%v: %+v", rep.Legacy, rep.OK(), rep.Issues)
	}
	if _, err := Scrub([]Disk{d}, true); err != nil {
		t.Fatal(err)
	}
	rep, err = Scrub([]Disk{d}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Legacy != 0 || rep.Manifests != 1 || len(rep.Issues) != 0 {
		t.Fatalf("after repair: Legacy=%d Manifests=%d: %+v", rep.Legacy, rep.Manifests, rep.Issues)
	}
}

// Scrub's findings come out in one order, sorted by key then disk, so
// pandafsck prints the same report and repairs in the same order on
// every run.
func TestScrubReportOrderIsStable(t *testing.T) {
	disks := []Disk{NewMemDisk(), NewMemDisk()}
	for _, key := range []string{"d.ckpt", "b.ckpt", "a.ckpt", "c.ckpt"} {
		for i, d := range disks {
			base := fmt.Sprintf("%s.%d", key, i)
			data := []byte("committed bytes of " + base)
			writeEpochFiles(t, d, base, 1, data)
			m := mkManifest(i, 1, data, 4)
			m.Array = key[:1] // each key's manifests name their own array
			if err := WriteManifest(d, EpochManifestName(base, 1), m); err != nil {
				t.Fatal(err)
			}
			if err := CommitEpoch(d, base, 1); err != nil {
				t.Fatal(err)
			}
			f, _ := d.Open(base)
			f.WriteAt([]byte("XX"), 3) // torn under its manifest
			f.Close()
		}
		if err := WriteDecision(disks[0], key, 1); err != nil {
			t.Fatal(err)
		}
	}
	var first []ScrubIssue
	for run := 0; run < 50; run++ {
		rep, err := Scrub(disks, false)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = rep.Issues
			if len(first) != 8 {
				t.Fatalf("want 8 findings, got %+v", first)
			}
			if !sort.SliceIsSorted(first, func(i, j int) bool {
				ki, kj := parseName(first[i].Name).key, parseName(first[j].Name).key
				return ki < kj || ki == kj && first[i].Disk < first[j].Disk
			}) {
				t.Fatalf("findings not sorted by key then disk: %+v", first)
			}
		} else if !reflect.DeepEqual(rep.Issues, first) {
			t.Fatalf("run %d reported\n%+v\nrun 0 reported\n%+v", run, rep.Issues, first)
		}
	}
}

// cutDisk applies the first n calls made on it and fails every call
// after them: a crash at that point. Its files are interposers: every
// write and sync must meet the cut, so cutFile has no Unwrap.
type cutDisk struct {
	Disk
	n int
}

var errCut = errors.New("cut")

func (d *cutDisk) step() error {
	d.n--
	if d.n < 0 {
		return errCut
	}
	return nil
}

func (d *cutDisk) Open(name string) (File, error) {
	if err := d.step(); err != nil {
		return nil, err
	}
	f, err := d.Disk.Open(name)
	if err != nil {
		return nil, err
	}
	return &cutFile{File: f, d: d}, nil
}

func (d *cutDisk) Create(name string) (File, error) {
	if err := d.step(); err != nil {
		return nil, err
	}
	f, err := d.Disk.Create(name)
	if err != nil {
		return nil, err
	}
	return &cutFile{File: f, d: d}, nil
}

// cutFile counts a handle's writes and syncs against its disk's cut.
type cutFile struct {
	File
	d *cutDisk
}

func (f *cutFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.d.step(); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *cutFile) Sync() error {
	if err := f.d.step(); err != nil {
		return err
	}
	return f.File.Sync()
}

func (d *cutDisk) Rename(oldName, newName string) error {
	if err := d.step(); err != nil {
		return err
	}
	return d.Disk.Rename(oldName, newName)
}

func (d *cutDisk) Remove(name string) error {
	if err := d.step(); err != nil {
		return err
	}
	return d.Disk.Remove(name)
}

// served is what a collective read would get from one disk: the
// resolver's answer, the bytes of the file it names, and whether they
// hold up (no resolver error, and a manifest, if any, verifies).
type served struct {
	c    Committed
	data []byte
	ok   bool
}

func serve(disks []Disk, epoch uint64) []served {
	out := make([]served, len(disks))
	for i, d := range disks {
		base := fmt.Sprintf("state.ckpt.%d", i)
		c, err := Resolve(d, base, epoch)
		s := served{c: c, ok: err == nil}
		if s.ok && c.Manifest != nil {
			s.ok = VerifyData(d, c.Name, c.Manifest) == nil
		}
		if c.Name != "" {
			s.data, _ = readFile(d, c.Name)
		}
		out[i] = s
	}
	return out
}

// TestResolverAndScrubAgree cuts CommitEpoch of epoch 2 after each of
// its disk calls, on one disk of one or two, under every decision (none,
// the epoch before, the epoch being committed) and with the new epoch's
// data intact or torn by a lying sync, and checks that Scrub's repair
// is the resolver's reading made durable: a disk set whose every answer
// holds up serves the same bytes after repair, one that does not either
// holds up after repair (a roll-back) or still fails Scrub; no answer is
// pending after repair; and a second repair repairs nothing. The
// "recycled" arm does the same to a key with a retained pair: it cuts
// the staging of epoch 3 that recycles ".prev" (stageRecycled) and the
// commit after it, under the decisions 2 and 3.
func TestResolverAndScrubAgree(t *testing.T) {
	// Count CommitEpoch's calls once, uncut.
	counter := &cutDisk{Disk: NewMemDisk(), n: 1 << 30}
	commitKey(t, []Disk{counter.Disk}, 1, func(int) []byte { return []byte("epoch one") })
	writeEpochFiles(t, counter.Disk, "state.ckpt.0", 2, []byte("epoch two"))
	if err := CommitEpoch(counter, "state.ckpt.0", 2); err != nil {
		t.Fatal(err)
	}
	calls := 1<<30 - counter.n

	for ndisks := 1; ndisks <= 2; ndisks++ {
		for cut := 0; cut <= calls; cut++ {
			for _, decided := range []uint64{0, 1, 2} {
				for _, torn := range []bool{false, true} {
					name := fmt.Sprintf("disks=%d/cut=%d/decision=%d/torn=%v", ndisks, cut, decided, torn)
					t.Run(name, func(t *testing.T) {
						agree(t, ndisks, cut, decided, torn, false)
					})
				}
			}
		}
	}

	// Count the recycled staging's and its commit's calls, uncut.
	counter = &cutDisk{Disk: NewMemDisk(), n: 1 << 30}
	disks := []Disk{counter.Disk}
	commitKey(t, disks, 1, func(int) []byte { return epochBytes(1, 0) })
	commitKey(t, disks, 2, func(int) []byte { return epochBytes(2, 0) })
	if err := stageRecycled(counter, "state.ckpt.0", 3, epochBytes(3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := CommitStaged(counter, "state.ckpt.0", 3, recycledStaged); err != nil {
		t.Fatal(err)
	}
	calls = 1<<30 - counter.n

	for ndisks := 1; ndisks <= 2; ndisks++ {
		for cut := 0; cut <= calls; cut++ {
			for _, decided := range []uint64{2, 3} {
				for _, torn := range []bool{false, true} {
					name := fmt.Sprintf("recycled/disks=%d/cut=%d/decision=%d/torn=%v", ndisks, cut, decided, torn)
					t.Run(name, func(t *testing.T) {
						agree(t, ndisks, cut, decided, torn, true)
					})
				}
			}
		}
	}
}

// epochBytes is server i's payload of an epoch; every epoch's is the
// same length, so a recycled file is overwritten end to end.
func epochBytes(epoch uint64, i int) []byte {
	return []byte(fmt.Sprintf("epoch %d of server %d", epoch, i))
}

// recycledStaged is what a server whose own commit put the epoch before
// on a base knows of a staging that recycled ".prev".
var recycledStaged = Staged{Data: true, Manifest: true, Retain: true}

// stageRecycled stages epoch of base the way such a server does: the
// retained file becomes the epoch's temp (RecycleEpoch) and is
// overwritten in place, then synced and described by its manifest.
func stageRecycled(d Disk, base string, epoch uint64, data []byte) error {
	if err := RecycleEpoch(d, base, epoch); err != nil {
		return err
	}
	f, err := d.Open(EpochName(base, epoch))
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
	return WriteManifest(d, EpochManifestName(base, epoch), mkManifest(0, epoch, data, 4))
}

func agree(t *testing.T, ndisks, cut int, decided uint64, torn, recycled bool) {
	disks := make([]Disk, ndisks)
	for i := range disks {
		disks[i] = NewMemDisk()
	}
	if recycled {
		commitKey(t, disks, 1, func(i int) []byte { return epochBytes(1, i) })
		commitKey(t, disks, 2, func(i int) []byte { return epochBytes(2, i) })
	} else {
		commitKey(t, disks, 1, func(i int) []byte { return []byte(fmt.Sprintf("epoch one of server %d", i)) })
	}
	for i, d := range disks {
		base := fmt.Sprintf("state.ckpt.%d", i)
		fd := &FaultDisk{Inner: d}
		if torn && i == 0 {
			fd.ArmTornSync()
		}
		if recycled {
			var cd Disk = fd
			if i == ndisks-1 {
				cd = &cutDisk{Disk: fd, n: cut}
			}
			if stageRecycled(cd, base, 3, epochBytes(3, i)) == nil {
				_, _ = CommitStaged(cd, base, 3, recycledStaged)
			}
			continue
		}
		writeEpochFiles(t, fd, base, 2, []byte(fmt.Sprintf("epoch TWO of server %d", i)))
		var cd Disk = d
		if i == ndisks-1 {
			cd = &cutDisk{Disk: d, n: cut}
		}
		_ = CommitEpoch(cd, base, 2)
	}
	if err := disks[0].Remove(DecisionName("state.ckpt")); err != nil {
		t.Fatal(err)
	}
	if decided > 0 {
		if err := WriteDecision(disks[0], "state.ckpt", decided); err != nil {
			t.Fatal(err)
		}
	}

	before := serve(disks, decided)
	if _, err := Scrub(disks, true); err != nil {
		t.Fatal(err)
	}
	now, _, err := ReadDecision(disks[0], "state.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	after := serve(disks, now)
	check, err := Scrub(disks, false)
	if err != nil {
		t.Fatal(err)
	}
	held := true
	for _, s := range before {
		held = held && s.ok
	}
	for i, a := range after {
		if a.c.Pending {
			t.Errorf("disk %d: answer still pending after repair: %+v", i, a.c)
		}
		switch {
		case held && (!a.ok || !bytes.Equal(a.data, before[i].data)):
			t.Errorf("disk %d: served %q (ok=%v) before repair, %q (ok=%v) after", i, before[i].data, before[i].ok, a.data, a.ok)
		case !held && !a.ok && check.OK():
			t.Errorf("disk %d: answer fails after repair but scrub passes: %+v", i, check.Issues)
		}
	}
	if held && now != decided {
		t.Errorf("decision moved %d → %d over a disk set that held", decided, now)
	}
	again, err := Scrub(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.RolledForward+again.Removed+again.RolledBack != 0 {
		t.Errorf("second repair repaired again: %+v", again)
	}
}

// FuzzScrub builds a disk from the name grammar — committed, retained,
// epoch temps, decision records, scratch and legacy files of two keys,
// with contents that verify, fail verification or do not parse — and
// checks that Scrub never panics, that a second repair repairs nothing,
// and that after repair every answer the resolver gives verifies unless
// Scrub still reports an error.
func FuzzScrub(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 0, 6, 1, 0})          // a committed epoch and its decision
	f.Add([]byte{4, 2, 0, 5, 2, 0, 1, 1, 0, 6, 2, 0}) // an interrupted commit of epoch 2
	f.Add([]byte{0, 2, 1, 1, 2, 0, 2, 1, 0, 3, 1, 0, 6, 2, 0})
	f.Add([]byte{5, 3, 2, 4, 3, 8, 7, 0, 0, 6, 1, 2, 16, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		d := NewMemDisk()
		for i := 0; i+2 < len(in) && i < 60; i += 3 {
			fuzzFile(t, d, in[i], uint64(in[i+1]%4), in[i+2])
		}
		if _, err := Scrub([]Disk{d}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := Scrub([]Disk{d}, true); err != nil {
			t.Fatal(err)
		}
		again, err := Scrub([]Disk{d}, true)
		if err != nil {
			t.Fatal(err)
		}
		if again.RolledForward+again.Removed+again.RolledBack != 0 {
			t.Fatalf("second repair repaired again: %+v", again)
		}
		if !again.OK() {
			return
		}
		names, _ := d.List()
		for _, n := range names {
			p := parseName(n)
			e, _, err := ReadDecision(d, p.key)
			if p.base == "" || err != nil {
				continue
			}
			c, err := Resolve(d, p.base, e)
			if err == nil && c.Manifest != nil {
				err = VerifyData(d, c.Name, c.Manifest)
			}
			if err != nil || c.Pending {
				t.Fatalf("%s at epoch %d after repair: %+v, %v (scrub: %+v)", p.base, e, c, err, again.Issues)
			}
		}
	})
}

// fuzzFile writes one file of the grammar. sel picks the base (bit 4:
// a second key) and the slot (low bits); flags pick the contents: bit 0
// fails verification, bit 1 does not parse, bit 2 is a manifest of no
// bytes, bit 3 truncates data.
func fuzzFile(t *testing.T, d Disk, sel byte, epoch uint64, flags byte) {
	base := "k.c.0"
	if sel&16 != 0 {
		base = "j.1"
	}
	payload := bytes.Repeat([]byte{'A' + byte(epoch)}, 24)
	m := mkManifest(0, epoch, payload, 8)
	if flags&1 != 0 {
		m.Subs[0].CRC++
	}
	if flags&4 != 0 {
		m.TotalBytes, m.Subs = 0, nil
	}
	mfst, _ := json.Marshal(m)
	if flags&2 != 0 {
		mfst = mfst[:len(mfst)/2]
	}
	if flags&1 != 0 {
		payload = bytes.Repeat([]byte{'a'}, 24)
	}
	if flags&8 != 0 {
		payload = payload[:10]
	}
	var name string
	data := payload
	switch sel % 9 {
	case 0:
		name = base
	case 1:
		name, data = ManifestName(base), mfst
	case 2:
		name = PrevName(base)
	case 3:
		name, data = ManifestName(PrevName(base)), mfst
	case 4:
		name = EpochName(base, epoch)
	case 5:
		name, data = EpochManifestName(base, epoch), mfst
	case 6:
		dec, _ := json.Marshal(decision{Epoch: epoch})
		if flags&2 != 0 {
			dec = dec[:3]
		}
		name, data = DecisionName(parseName(base).key), dec
	case 7:
		name, data = ManifestName(base)+scratchExt, mfst
	case 8:
		name = "legacy.0"
	}
	if err := WriteFileAtomic(d, name, data); err != nil {
		t.Fatal(err)
	}
}
