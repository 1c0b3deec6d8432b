package storage

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// osdisk_test.go pins the write-behind hint of OSDisk's read/write
// handle (Create's, and Open's): it trails the writes by exactly one, so
// single-write files and every file's last range never issue it, and it
// changes no byte on disk.

type hintRange struct {
	off int64
	n   int
}

// recordHints installs the package's hint hook for one test and returns
// the slice it appends to.
func recordHints(t *testing.T) *[]hintRange {
	t.Helper()
	var got []hintRange
	hintHook = func(off int64, n int) { got = append(got, hintRange{off, n}) }
	t.Cleanup(func() { hintHook = nil })
	return &got
}

func newOSDisk(t *testing.T) *OSDisk {
	t.Helper()
	d, err := NewOSDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writeRanges writes pattern bytes at each range through f.
func writeRanges(t *testing.T, f File, ranges []hintRange) {
	t.Helper()
	for i, r := range ranges {
		if _, err := f.WriteAt(bytes.Repeat([]byte{byte('a' + i)}, r.n), r.off); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWritebackHintTrailsWritesByOne(t *testing.T) {
	d := newOSDisk(t)
	hints := recordHints(t)
	f, err := d.Create("ckpt.0.e1")
	if err != nil {
		t.Fatal(err)
	}
	ranges := []hintRange{{0, 4096}, {4096, 8192}, {12288, 100}, {12388, 4096}}
	writeRanges(t, f, ranges)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if want := ranges[:3]; !reflect.DeepEqual(*hints, want) {
		t.Fatalf("hints %v, want the first three ranges %v in order", *hints, want)
	}
}

// A file written once is never hinted: the Sync that follows covers it.
// That is every timestep_1m data file (one 512 KiB sub-chunk per
// server), every manifest and every decision record.
func TestSingleWriteFilesAreNeverHinted(t *testing.T) {
	d := newOSDisk(t)
	hints := recordHints(t)
	f, err := d.Create("step.t7.0.e1")
	if err != nil {
		t.Fatal(err)
	}
	writeRanges(t, f, []hintRange{{0, 512 << 10}})
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := WriteFileAtomic(d, "step.t7.0.e1.mfst", []byte(`{"version":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteDecision(d, "step.t7", 1); err != nil {
		t.Fatal(err)
	}
	if len(*hints) != 0 {
		t.Fatalf("single-write files issued hints %v", *hints)
	}
}

// Open's handle hints only when it is written: readers and Exists
// probes of a file never hint.
func TestOpenedHandleNeverHints(t *testing.T) {
	d := newOSDisk(t)
	f, err := d.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	writeRanges(t, f, []hintRange{{0, 4096}})
	f.Close()
	hints := recordHints(t)
	f, err = d.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	for off := int64(0); off < 4096; off += int64(len(buf)) {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if !Exists(d, "a") {
		t.Fatal("Exists misses a file")
	}
	if _, err := readFile(d, "a"); err != nil {
		t.Fatal(err)
	}
	if len(*hints) != 0 {
		t.Fatalf("reading through Open's handle issued hints %v", *hints)
	}
}

// The real call must succeed against a host file (on platforms without
// sync_file_range the stub does, trivially).
func TestStartWritebackSucceedsOnHostFile(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "wb")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 64<<10), 0); err != nil {
		t.Fatal(err)
	}
	if err := startWriteback(int(f.Fd()), 0, 64<<10); err != nil {
		t.Fatalf("startWriteback: %v", err)
	}
}

// The same writes through the hinting handles — Create's, and Open's
// over an existing file, as a recycled epoch file is overwritten — and
// through a stateless one must leave the same bytes, out-of-order
// range included.
func TestWritebackHintChangesNoBytes(t *testing.T) {
	d := newOSDisk(t)
	ranges := []hintRange{{0, 4096}, {4096, 8192}, {20000, 100}, {12288, 4096}}
	hints := recordHints(t)
	write := func(name string, open func(string) (File, error)) []byte {
		f, err := open(name)
		if err != nil {
			t.Fatal(err)
		}
		writeRanges(t, f, ranges)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		data, err := readFile(d, name)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	hinted := write("hinted", d.Create)
	if len(*hints) != 3 {
		t.Fatalf("%d hints from the Create handle, want 3", len(*hints))
	}
	// A file of the same size holding other bytes wherever the ranges
	// write, overwritten in place.
	old := bytes.Repeat([]byte{'z'}, 20100)
	clear(old[16384:20000])
	if err := WriteFileAtomic(d, "reused", old); err != nil {
		t.Fatal(err)
	}
	reused := write("reused", d.Open)
	if len(*hints) != 6 {
		t.Fatalf("%d hints from the Open handle, want 3 like Create's", len(*hints)-3)
	}
	plain := write("plain", func(name string) (File, error) {
		f, err := os.OpenFile(d.path(name), os.O_RDWR|os.O_CREATE, 0o644)
		return osFile{f}, err
	})
	if len(*hints) != 6 {
		t.Fatalf("the stateless handle hinted: %v", (*hints)[6:])
	}
	if len(hinted) != 20100 || !bytes.Equal(hinted, plain) || !bytes.Equal(reused, plain) {
		t.Fatalf("hinted file (%d bytes) or reused file (%d bytes) differs from the plain one (%d bytes)", len(hinted), len(reused), len(plain))
	}
}

// Close ends the handle's claim on its descriptor: a WriteAt after it
// fails and hints nothing, even with a range pending.
func TestClosedHandleNeverHints(t *testing.T) {
	d := newOSDisk(t)
	hints := recordHints(t)
	f, err := d.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	writeRanges(t, f, []hintRange{{0, 4096}})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.WriteAt([]byte("x"), 4096); err == nil {
			t.Fatal("WriteAt on a closed handle succeeded")
		}
	}
	if len(*hints) != 0 {
		t.Fatalf("closed handle issued hints %v", *hints)
	}
}
