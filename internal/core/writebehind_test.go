package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/storage"
)

// writebehind_test.go covers what the write path promises its disk and
// its buffer pool: a commit lists nothing and costs the same at step 60
// as at step 5, the barriers sit where they always sat, every write
// window of the storage stage — zero, and write-behind asked for by
// Pipeline or by MaxInflight — leaves the same files on a host file
// system (whose Create handle starts writeback early), and an adopted
// wire frame goes back to the pool once its sub-chunk is written.

// naturalSpec is one array whose memory and disk schemas agree, so every
// sub-chunk is one client's contiguous piece and its frame is adopted.
func naturalSpec(name string, rows int) ArraySpec {
	sch := array.MustSchema([]int{rows, 64}, []array.Dist{array.Block, array.Star}, []int{2})
	return ArraySpec{Name: name, ElemSize: 4, Mem: sch, Disk: sch}
}

// tracedMemDisks returns n MemDisks logging into one shared trace.
func tracedMemDisks(n int) (*diskTrace, []storage.Disk) {
	tr := &diskTrace{}
	disks := make([]storage.Disk, n)
	for i := range disks {
		disks[i] = &traceDisk{inner: storage.NewMemDisk(), trace: tr}
	}
	return tr, disks
}

func (tr *diskTrace) count(op byte) (n int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, e := range tr.events {
		if e.op == op {
			n++
		}
	}
	return n
}

func (tr *diskTrace) len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.events)
}

// TestCommitPathListsNothing writes 60 timesteps (a new file set each)
// and requires that no collective ever lists its data directory and
// that a late step issues exactly as many disk calls as an early one.
func TestCommitPathListsNothing(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 1 << 10}
	specs := []ArraySpec{naturalSpec("step", 16)}
	tr, disks := tracedMemDisks(cfg.NumServers)

	const steps = 60
	calls := make([]int, steps+1) // calls[k]: disk calls made by steps 1..k
	var listsAfterBringUp int
	_, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
		for k := 1; k <= steps; k++ {
			if cl.Rank() == 0 && k == 1 {
				listsAfterBringUp = tr.count('l')
			}
			if err := cl.WriteArrays(fmt.Sprintf(".t%d", k), specs, makeBufs(cl, specs, true)); err != nil {
				return err
			}
			// The master client returns only after every server has
			// committed, and step k+1 cannot start without it.
			if cl.Rank() == 0 {
				calls[k] = tr.len()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.count('l') - listsAfterBringUp; got != 0 {
		t.Errorf("%d List calls on the write path of %d timesteps, want 0", got, steps)
	}
	early, late := calls[5]-calls[4], calls[60]-calls[59]
	if early == 0 || early != late {
		t.Errorf("step 5 made %d disk calls, step 60 made %d: per-op cost must not depend on history", early, late)
	}
}

// TestCommitPathBarriers pins where a 2PC write syncs and renames on one
// server: data, then its manifest, then (master only) the decision, then
// the promotion. Removing the directory listing moved none of them. The
// third write of the key recycles the retained epoch's file: it removes
// the retained manifest, renames the retained data onto its temp and
// opens it instead of creating one, syncs where the first write did, and
// its retention renames replace nothing.
func TestCommitPathBarriers(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 1, SubchunkBytes: 1 << 10}
	specs := []ArraySpec{naturalSpec("bar", 16)} // 4 KiB: four sub-chunks
	tr, disks := tracedMemDisks(1)
	var marks [3]int // trace length after each write
	if err := RunReal(cfg, disks, func(cl *Client) error {
		for k := range marks {
			if err := cl.WriteArrays("", specs, makeBufs(cl, specs, true)); err != nil {
				return err
			}
			if cl.Rank() == 0 {
				marks[k] = tr.len()
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// pinned lists the events of the kinds in ops but the master's read
	// of its decision record, with "+" on a rename that replaced a file.
	pinned := func(events []traceEvent, ops string) []string {
		var got []string
		for _, e := range events {
			if strings.ContainsRune(ops, rune(e.op)) && !(e.op == 'o' && e.name == "bar.decision") {
				replaced := ""
				if e.op == 'm' && e.n == 1 {
					replaced = "+"
				}
				got = append(got, fmt.Sprintf("%c%s %s", e.op, replaced, e.name))
			}
		}
		return got
	}
	check := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, ", ") != strings.Join(want, ", ") {
			t.Errorf("%s:\n got %v\nwant %v", what, got, want)
		}
	}
	var first []string
	for _, e := range tr.events[:marks[0]] {
		if strings.ContainsRune("wsm", rune(e.op)) {
			first = append(first, fmt.Sprintf("%c %s", e.op, e.name))
		}
	}
	check("write path barriers", first, []string{
		"w bar.0.e1", "w bar.0.e1", "w bar.0.e1", "w bar.0.e1", "s bar.0.e1",
		"w bar.0.e1.mfst.tmp", "s bar.0.e1.mfst.tmp", "m bar.0.e1.mfst",
		"w bar.decision.tmp", "s bar.decision.tmp", "m bar.decision",
		"m bar.0", "m bar.0.mfst",
	})
	check("recycled write path", pinned(tr.events[marks[1]:marks[2]], "cowsmx"), []string{
		"x bar.0.prev.mfst", "m bar.0.e3", "o bar.0.e3",
		"w bar.0.e3", "w bar.0.e3", "w bar.0.e3", "w bar.0.e3", "s bar.0.e3",
		"c bar.0.e3.mfst.tmp", "w bar.0.e3.mfst.tmp", "s bar.0.e3.mfst.tmp", "m bar.0.e3.mfst",
		"c bar.decision.tmp", "w bar.decision.tmp", "s bar.decision.tmp", "m+ bar.decision",
		"m bar.0.prev.mfst", "m bar.0.prev", "m bar.0", "m bar.0.mfst",
	})
}

// TestSinksWriteIdenticalFilesOverOSDisk runs one 2PC collective through
// the storage stage with a window of zero (the paper's serial loop),
// with write-behind asked for by Pipeline and with write-behind asked
// for by MaxInflight, over real files, and requires byte-identical data
// files, manifests and decision records: starting writeback early must
// not perturb an offset or an ordering.
func TestSinksWriteIdenticalFilesOverOSDisk(t *testing.T) {
	shape := []int{64, 64}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block}, []int{2, 2})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	specs := []ArraySpec{{Name: "sink", ElemSize: 4, Mem: mem, Disk: disk}}

	run := func(name string, tune func(*Config)) map[string][]byte {
		cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 1 << 10}
		tune(&cfg)
		disks := make([]storage.Disk, cfg.NumServers)
		for i := range disks {
			d, err := storage.NewOSDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			disks[i] = d
		}
		if err := RunReal(cfg, disks, func(cl *Client) error {
			if err := cl.WriteArrays("", specs, makeBufs(cl, specs, true)); err != nil {
				return err
			}
			bufs := makeBufs(cl, specs, false)
			if err := cl.ReadArrays("", specs, bufs); err != nil {
				return err
			}
			return checkBufs(cl, specs, bufs)
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		files := make(map[string][]byte)
		for i, d := range disks {
			names, err := d.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range names {
				f, err := d.Open(n)
				if err != nil {
					t.Fatal(err)
				}
				sz, _ := f.Size()
				data := make([]byte, sz)
				if _, err := f.ReadAt(data, 0); err != nil && sz > 0 {
					t.Fatal(err)
				}
				f.Close()
				files[fmt.Sprintf("ion%d/%s", i, n)] = data
			}
		}
		return files
	}

	serial := run("serial", func(c *Config) { c.Pipeline = 1 })
	if len(serial["ion0/sink.0"]) != 8<<10 || len(serial["ion1/sink.1.mfst"]) == 0 || len(serial["ion0/sink.decision"]) == 0 {
		t.Fatalf("serial run left an unexpected file set: %d files", len(serial))
	}
	for _, other := range []struct {
		name string
		tune func(*Config)
	}{
		{"staged", func(c *Config) { c.Pipeline = 4 }},
		{"sched", func(c *Config) { c.Sched = SchedConfig{MaxInflight: 2} }},
	} {
		got := run(other.name, other.tune)
		if len(got) != len(serial) {
			t.Errorf("%s left %d files, serial left %d", other.name, len(got), len(serial))
		}
		for n, want := range serial {
			if !bytes.Equal(got[n], want) {
				t.Errorf("%s: %s differs from the serial run's (%d vs %d bytes)", other.name, n, len(got[n]), len(want))
			}
		}
	}
}

// TestAdoptedFramesReturnToPool overwrites a natural-chunking array
// over the in-process world. Every sub-chunk's wire frame is adopted as
// its write buffer, so it must reach bufpool.Put after the WriteAt: a
// deployment that ran 50 writes leaves as many buffers checked out
// (gets − puts) as one that ran 5. Each write is read back bit-exact,
// so a frame recycled while still in use shows as corruption.
func TestAdoptedFramesReturnToPool(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 1 << 10}
	specs := []ArraySpec{naturalSpec("adopt", 32)} // 8 KiB: four sub-chunks per server
	live := func() int64 {
		got, put, _ := bufpool.Stats()
		return got - put
	}
	// checkedOut runs a whole deployment — every node has exited when
	// RunReal returns — and reports how many buffers it never put back.
	checkedOut := func(writes int) int64 {
		before := live()
		if err := RunReal(cfg, memDisks(cfg.NumServers), func(cl *Client) error {
			for k := 1; k <= writes; k++ {
				if err := cl.WriteArrays("", specs, xorFill(cl, specs, byte(k))); err != nil {
					return err
				}
				got := makeBufs(cl, specs, false)
				if err := cl.ReadArrays("", specs, got); err != nil {
					return err
				}
				if matchEpoch(cl, specs, got, []byte{byte(k)}) != 0 {
					return fmt.Errorf("client %d: write %d read back corrupt", cl.Rank(), k)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return live() - before
	}
	if few, many := checkedOut(5), checkedOut(50); few != many {
		t.Errorf("buffers never returned: %d after 5 writes, %d after 50 (%+.1f per op): frames leak per op",
			few, many, float64(many-few)/45)
	}
}
