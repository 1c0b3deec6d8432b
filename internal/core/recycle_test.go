package core

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"panda/internal/array"
	"panda/internal/storage"
)

// recycle_test.go covers a server overwriting the retained epoch's file
// for its next write of a key (commit.go, retainedSet): what a recycled
// write leaves after a Scrub roll-back, an abort, a change of size, and
// the one fault the trade leaves uncovered.

// writeKey writes specs filled under key and fails unless it commits.
func writeKey(cl *Client, specs []ArraySpec, key byte) error {
	if err := cl.WriteArrays(".ckpt", specs, xorFill(cl, specs, key)); err != nil {
		return fmt.Errorf("write %#x: %w", key, err)
	}
	return nil
}

// readKey reads specs back and fails unless they hold key's fill.
func readKey(cl *Client, specs []ArraySpec, key byte) error {
	got := makeBufs(cl, specs, false)
	if err := cl.ReadArrays(".ckpt", specs, got); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if matchEpoch(cl, specs, got, []byte{key}) != 0 {
		return fmt.Errorf("rank %d: read does not hold the %#x fill", cl.Rank(), key)
	}
	return nil
}

// prevRecycles counts the retained manifests a trace removed: one per
// recycled staging.
func prevRecycles(tr *diskTrace, from int) (n int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, e := range tr.events[from:] {
		if e.op == 'x' && strings.HasSuffix(e.name, ".prev.mfst") {
			n++
		}
	}
	return n
}

// scrubClean fails unless a check-mode Scrub finds nothing at all.
func scrubClean(t *testing.T, disks []storage.Disk, when string) {
	t.Helper()
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 0 {
		t.Fatalf("%s: scrub found %+v", when, rep.Issues)
	}
}

// A key Scrub rolled back (its decision names the epoch in ".prev" on a
// server whose newest file verified) is restarted, rewritten twice and
// read back bit-exact: the restarted process recycles nothing until its
// own commit has retained a pair.
func TestRecycledWriteAfterRollBack(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	tr, disks := tracedMemDisks(cfg.NumServers)
	if err := RunReal(cfg, disks, func(cl *Client) error {
		if err := writeKey(cl, specs, 0x01); err != nil {
			return err
		}
		return writeKey(cl, specs, 0x02)
	}); err != nil {
		t.Fatal(err)
	}
	// Tear epoch 2 on server 1 alone: the roll-back promotes its ".prev"
	// and leaves server 0's, which is then the decided epoch's file.
	f, err := disks[1].Open(specs[0].FileName(".ckpt", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x5a}, 7); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err := storage.Scrub(disks, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBack != 1 {
		t.Fatalf("scrub did not roll the key back: %+v", rep)
	}
	if c, err := storage.Resolve(disks[0], specs[0].FileName(".ckpt", 0), 1); err != nil || c.Name != storage.PrevName(specs[0].FileName(".ckpt", 0)) {
		t.Fatalf("server 0 serves the rolled-back epoch from %+v (%v), want its retained file", c, err)
	}

	from := tr.len()
	var restaged int
	if err := RunReal(cfg, disks, func(cl *Client) error {
		if err := readKey(cl, specs, 0x01); err != nil {
			return err
		}
		if err := writeKey(cl, specs, 0x03); err != nil {
			return err
		}
		if cl.Rank() == 0 {
			restaged = prevRecycles(tr, from)
		}
		if err := readKey(cl, specs, 0x03); err != nil {
			return err
		}
		if err := writeKey(cl, specs, 0x04); err != nil {
			return err
		}
		return readKey(cl, specs, 0x04)
	}); err != nil {
		t.Fatal(err)
	}
	if restaged != 0 {
		t.Errorf("the restarted process's first write recycled %d files, want none", restaged)
	}
	if n := prevRecycles(tr, from); n != cfg.NumServers {
		t.Errorf("the second write recycled %d files, want one per server (%d)", n, cfg.NumServers)
	}
	scrubClean(t, disks, "after the rewrites")
}

// recycleAbort arms a per-operation crash at the master's decide point
// of the first write issued after arm is set: a write that recycled on
// every server, aborted before anything was decided.
func recycleAbort(cfg *Config) (arm func(), fired *atomic.Bool) {
	var armed atomic.Bool
	fired = &atomic.Bool{}
	cfg.crashHookOp = func(server, _ int, point string) error {
		if armed.Load() && server == 0 && point == "decide" && fired.CompareAndSwap(false, true) {
			return errors.New("injected op crash")
		}
		return nil
	}
	return func() { armed.Store(true) }, fired
}

// An aborted recycled write leaves the decided epoch readable and the
// directory Scrub-clean, and the key's next writes commit and read back.
func TestAbortedRecycledWriteKeepsDecidedEpoch(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	arm, fired := recycleAbort(&cfg)
	tr, disks := tracedMemDisks(cfg.NumServers)
	var aborted atomic.Int32
	var afterAbort error
	if err := RunReal(cfg, disks, func(cl *Client) error {
		if err := writeKey(cl, specs, 0x01); err != nil {
			return err
		}
		if err := writeKey(cl, specs, 0x02); err != nil {
			return err
		}
		if cl.Rank() == 0 {
			arm()
		}
		if err := writeKey(cl, specs, 0x03); err != nil {
			aborted.Add(1)
		}
		if err := readKey(cl, specs, 0x02); err != nil {
			return err
		}
		if cl.Rank() == 0 {
			// The read is collective: every server has finished the abort.
			rep, err := storage.Scrub(disks, false)
			if err == nil && len(rep.Issues) != 0 {
				err = fmt.Errorf("%+v", rep.Issues)
			}
			afterAbort = err
		}
		if err := writeKey(cl, specs, 0x04); err != nil {
			return err
		}
		if err := writeKey(cl, specs, 0x05); err != nil {
			return err
		}
		return readKey(cl, specs, 0x05)
	}); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() || int(aborted.Load()) != cfg.NumClients {
		t.Fatalf("crash fired %v, %d of %d ranks saw the write fail", fired.Load(), aborted.Load(), cfg.NumClients)
	}
	if afterAbort != nil {
		t.Fatalf("scrub after the aborted recycled write: %v", afterAbort)
	}
	// Write 3 recycled and aborted; write 4 found no retained pair to
	// recycle; write 5 recycled the pair write 4 retained.
	if n := prevRecycles(tr, 0); n != 2*cfg.NumServers {
		t.Errorf("%d recycled stagings, want %d: writes 3 and 5 on every server", n, 2*cfg.NumServers)
	}
	scrubClean(t, disks, "after the rewrites")
}

// A write whose share differs from the retained file's size — here the
// array shrinks — opens the recycled temp, finds it the wrong size and
// creates it afresh, so the file ends exactly as large as its manifest
// says.
func TestRecycleFallsBackToCreateOnSizeChange(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	small := specs[0]
	small.Mem = array.MustSchema([]int{16, 8}, small.Mem.Dist, small.Mem.Mesh)
	small.Disk = array.MustSchema([]int{16, 8}, small.Disk.Dist, small.Disk.Mesh)
	smalls := []ArraySpec{small}
	tr, disks := tracedMemDisks(cfg.NumServers)
	if err := RunReal(cfg, disks, func(cl *Client) error {
		if err := writeKey(cl, specs, 0x01); err != nil {
			return err
		}
		if err := writeKey(cl, specs, 0x02); err != nil {
			return err
		}
		if err := writeKey(cl, smalls, 0x03); err != nil {
			return err
		}
		return readKey(cl, smalls, 0x03)
	}); err != nil {
		t.Fatal(err)
	}
	for i, d := range disks {
		base := small.FileName(".ckpt", i)
		temp := storage.EpochName(base, 3)
		var ops string
		for _, e := range tr.events {
			if e.name == temp && (e.op == 'o' || e.op == 'c') {
				ops += string(e.op)
			}
		}
		if ops != "oc" {
			t.Errorf("server %d opened and created %s as %q, want an open that falls back to a create (\"oc\")", i, temp, ops)
		}
		m, err := storage.ReadManifest(d, storage.ManifestName(base))
		if err != nil {
			t.Fatal(err)
		}
		f, err := d.Open(base)
		if err != nil {
			t.Fatal(err)
		}
		sz, _ := f.Size()
		f.Close()
		if sz != m.TotalBytes || sz != 16*8*4/2 {
			t.Errorf("server %d: %s holds %d bytes, manifest says %d", i, base, sz, m.TotalBytes)
		}
	}
	scrubClean(t, disks, "after the shrinking write")
}

// The trade recycling makes: after an aborted recycled write a key has
// no ".prev" until its next successful write, so when the newest
// committed epoch also fails verification (a Sync that lied) nothing
// is left to roll back to. Scrub reports the key, repairs nothing, and a
// verifying read refuses the torn bytes rather than serve them.
func TestDoubleFaultLeavesNoRollBackTarget(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	arm, fired := recycleAbort(&cfg)
	lying := &storage.FaultDisk{Inner: storage.NewMemDisk()}
	disks := []storage.Disk{lying, storage.NewMemDisk()}
	if err := RunReal(cfg, disks, func(cl *Client) error {
		if err := writeKey(cl, specs, 0x01); err != nil {
			return err
		}
		if cl.Rank() == 0 {
			lying.ArmTornSync() // server 0's next sync is epoch 2's data
		}
		if err := writeKey(cl, specs, 0x02); err != nil {
			return err
		}
		if cl.Rank() == 0 {
			arm()
		}
		_ = writeKey(cl, specs, 0x03) // recycles epoch 1's files, then aborts
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() || lying.TornSyncs() != 1 {
		t.Fatalf("crash fired %v, %d torn syncs", fired.Load(), lying.TornSyncs())
	}
	for _, repair := range []bool{false, true} {
		rep, err := storage.Scrub(disks, repair)
		if err != nil {
			t.Fatal(err)
		}
		reported := false
		for _, is := range rep.Issues {
			reported = reported || is.Disk == 0 && is.Severity == storage.SevError
		}
		if !reported || rep.OK() || rep.RolledBack != 0 {
			t.Fatalf("repair=%v: scrub %+v, want the key reported unrecoverable and not rolled back", repair, rep)
		}
	}
	if e, _, err := storage.ReadDecision(disks[0], specs[0].Name+".ckpt"); err != nil || e != 2 {
		t.Fatalf("decision %d (%v), want 2", e, err)
	}
	cfg.crashHookOp = nil
	cfg.VerifyOnRestart = true
	errs := make([]error, cfg.NumClients)
	if err := RunReal(cfg, disks, func(cl *Client) error {
		errs[cl.Rank()] = cl.ReadArrays(".ckpt", specs, makeBufs(cl, specs, false))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for rank, err := range errs {
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("rank %d: verifying read returned %v, want ErrCorrupt", rank, err)
		}
	}
}

// A plain overwrite (Config.PlainWrites) of the same share opens its
// file and overwrites it in place, as a recycled staging does — it
// frees no blocks the write then allocates again — and reads back
// bit-exact; a write whose share changed truncates the file with Create,
// so it ends exactly as large as the new share.
func TestPlainOverwriteReusesTheFile(t *testing.T) {
	cfg, specs := recoverySpecs(3, 2)
	cfg.PlainWrites = true
	small := specs[0]
	small.Mem = array.MustSchema([]int{16, 8}, small.Mem.Dist, small.Mem.Mesh)
	small.Disk = array.MustSchema([]int{16, 8}, small.Disk.Dist, small.Disk.Mesh)
	tr, disks := tracedMemDisks(cfg.NumServers)
	// phase runs app over the disks and returns how each server opened
	// its file meanwhile: an open that found it ("o"), one that fell back
	// to a create ("oc"), or not at all.
	phase := func(app App) []string {
		t.Helper()
		from := tr.len()
		if err := RunReal(cfg, disks, app); err != nil {
			t.Fatal(err)
		}
		tr.mu.Lock()
		defer tr.mu.Unlock()
		opens := make([]string, cfg.NumServers)
		for i := range opens {
			for _, e := range tr.events[from:] {
				if e.name == specs[0].FileName(".ckpt", i) && (e.op == 'o' || e.op == 'c') {
					opens[i] += string(e.op)
				}
			}
		}
		return opens
	}
	for _, step := range []struct {
		what  string
		specs []ArraySpec
		key   byte
		opens string
	}{
		{"first write", specs, 0x01, "oc"},
		{"overwrite", specs, 0x02, "o"},
		{"smaller overwrite", []ArraySpec{small}, 0x03, "oc"},
	} {
		for i, got := range phase(func(cl *Client) error { return writeKey(cl, step.specs, step.key) }) {
			if got != step.opens {
				t.Errorf("%s: server %d opened its file as %q, want %q", step.what, i, got, step.opens)
			}
		}
		phase(func(cl *Client) error { return readKey(cl, step.specs, step.key) })
	}
	for i, d := range disks {
		f, err := d.Open(small.FileName(".ckpt", i))
		if err != nil {
			t.Fatal(err)
		}
		sz, _ := f.Size()
		f.Close()
		if sz != 16*8*4/2 {
			t.Errorf("server %d: file holds %d bytes after the smaller overwrite, want %d", i, sz, 16*8*4/2)
		}
	}
}
