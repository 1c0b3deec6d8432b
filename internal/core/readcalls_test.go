package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"panda/internal/mpi"
	"panda/internal/storage"
)

// callDisk records the Open, ReadAt, Rename and Remove calls made on the
// disk it wraps, in order.
type callDisk struct {
	storage.Disk
	mu    sync.Mutex
	calls []string
}

func (d *callDisk) log(format string, args ...any) {
	d.mu.Lock()
	d.calls = append(d.calls, fmt.Sprintf(format, args...))
	d.mu.Unlock()
}

func (d *callDisk) Open(name string) (storage.File, error) {
	d.log("Open %s", name)
	f, err := d.Disk.Open(name)
	if err != nil {
		return nil, err
	}
	return callFile{File: f, disk: d, name: name}, nil
}

func (d *callDisk) Rename(oldName, newName string) error {
	d.log("Rename %s %s", oldName, newName)
	return d.Disk.Rename(oldName, newName)
}

func (d *callDisk) Remove(name string) error {
	d.log("Remove %s", name)
	return d.Disk.Remove(name)
}

// callFile is an interposer: the ReadAt calls are what the tests pin,
// so it has no Unwrap and hides the host file.
type callFile struct {
	storage.File
	disk *callDisk
	name string
}

func (f callFile) ReadAt(p []byte, off int64) (int, error) {
	f.disk.log("ReadAt %s %d+%d", f.name, off, len(p))
	return f.File.ReadAt(p, off)
}

// TestReadPathDiskCalls pins the disk calls of a server's read of four
// keys, one in each state the resolver distinguishes: committed (.c),
// an interrupted commit it rolls forward (.p), a decision that names
// the retained previous epoch (.v), and a server whose committed state
// is stale because it was dead for the decided epoch (.s). SimDisk
// charges each call, so a change to this sequence moves the virtual-time
// figures of any commit-mode read.
func TestReadPathDiskCalls(t *testing.T) {
	cfg, specs := recoverySpecs(2, 2)
	disks := memDisks(cfg.NumServers)
	write := func(cfg Config, suffix string, key byte) error {
		_, err := RunWith(cfg, plainComms(cfg), disks, func(cl *Client) error {
			return cl.WriteArrays(suffix, specs, xorFill(cl, specs, key))
		})
		return err
	}
	for _, suffix := range []string{".c", ".p", ".v", ".s"} {
		if err := write(cfg, suffix, 1); err != nil {
			t.Fatalf("%s epoch 1: %v", suffix, err)
		}
	}
	for _, suffix := range []string{".p", ".v"} {
		if err := write(cfg, suffix, 2); err != nil {
			t.Fatalf("%s epoch 2: %v", suffix, err)
		}
	}
	// .p: undo server 1's renames of epoch 2, as a crash after the
	// decision leaves them.
	base := specs[0].FileName(".p", 1)
	d1 := disks[1]
	for _, mv := range [][2]string{
		{base, storage.EpochName(base, 2)},
		{storage.ManifestName(base), storage.EpochManifestName(base, 2)},
		{storage.PrevName(base), base},
		{storage.ManifestName(storage.PrevName(base)), storage.ManifestName(base)},
	} {
		if err := d1.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	// .v: the decision names the retained previous epoch.
	if err := storage.WriteDecision(disks[0], specs[0].Name+".v", 1); err != nil {
		t.Fatal(err)
	}
	// .s: server 1 is dead for epoch 2, which commits degraded on
	// server 0 and leaves server 1 holding epoch 1.
	degraded := cfg
	degraded.Retry = RetryPolicy{Max: 3, Backoff: 20 * time.Millisecond}
	plan := mpi.NewFaultPlan(5)
	barrier := newBarrier(cfg.NumClients)
	_, _ = RunWith(degraded, wrapWorld(degraded, plan), disks, func(cl *Client) error {
		barrier()
		if cl.Rank() == 0 {
			plan.CrashRank(cfg.ServerRank(1))
		}
		barrier()
		return cl.WriteArrays(".s", specs, xorFill(cl, specs, 2))
	})
	if e, _, err := storage.ReadDecision(disks[0], specs[0].Name+".s"); err != nil || e != 2 {
		t.Fatalf(".s decided epoch %d (%v), want 2", e, err)
	}

	rec := []*callDisk{{Disk: disks[0]}, {Disk: disks[1]}}
	if _, err := RunWith(cfg, plainComms(cfg), []storage.Disk{rec[0], rec[1]}, func(cl *Client) error {
		for _, suffix := range []string{".c", ".p", ".v", ".s"} {
			got := makeBufs(cl, specs, false)
			if err := cl.ReadArrays(suffix, specs, got); err != nil {
				return fmt.Errorf("read %s: %w", suffix, err)
			}
			want := byte(2)
			if suffix == ".c" || suffix == ".v" {
				want = 1
			}
			if e := matchEpoch(cl, specs, got, []byte{1, 2}); e != int(want)-1 {
				return fmt.Errorf("read %s served epoch index %d", suffix, e)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, d := range rec {
		got := strings.Join(d.calls, "\n")
		if got != readCalls[i] {
			t.Errorf("server %d's read made these disk calls:\n%s\n\nwant:\n%s", i, got, readCalls[i])
		}
	}
}

// readCalls is each server's call sequence for TestReadPathDiskCalls.
var readCalls = [2]string{
	`Open recov.c.decision
ReadAt recov.c.decision 0+11
Open recov.c.0.mfst
ReadAt recov.c.0.mfst 0+227
Open recov.c.0
ReadAt recov.c.0 0+256
ReadAt recov.c.0 256+256
Open recov.p.decision
ReadAt recov.p.decision 0+11
Open recov.p.0.mfst
ReadAt recov.p.0.mfst 0+228
Open recov.p.0
ReadAt recov.p.0 0+256
ReadAt recov.p.0 256+256
Open recov.v.decision
ReadAt recov.v.decision 0+11
Open recov.v.0.mfst
ReadAt recov.v.0.mfst 0+228
Open recov.v.0.e1.mfst
Open recov.v.0.prev.mfst
ReadAt recov.v.0.prev.mfst 0+227
Open recov.v.0.prev
ReadAt recov.v.0.prev 0+256
ReadAt recov.v.0.prev 256+256
Open recov.s.decision
ReadAt recov.s.decision 0+11
Open recov.s.0.mfst
ReadAt recov.s.0.mfst 0+360
Open recov.s.0
ReadAt recov.s.0 0+256
ReadAt recov.s.0 256+256
ReadAt recov.s.0 512+256
ReadAt recov.s.0 768+256`,
	`Open recov.c.1.mfst
ReadAt recov.c.1.mfst 0+228
Open recov.c.1
ReadAt recov.c.1 0+256
ReadAt recov.c.1 256+256
Open recov.p.1.mfst
ReadAt recov.p.1.mfst 0+228
Open recov.p.1.e2.mfst
Open recov.p.1.e2
Open recov.p.1.e2.mfst
ReadAt recov.p.1.e2.mfst 0+227
Open recov.p.1.e2
ReadAt recov.p.1.e2 0+256
ReadAt recov.p.1.e2 256+256
Open recov.p.1.e2
Open recov.p.1.e2.mfst
Open recov.p.1
Open recov.p.1.mfst
Rename recov.p.1.mfst recov.p.1.prev.mfst
Rename recov.p.1 recov.p.1.prev
Rename recov.p.1.e2 recov.p.1
Rename recov.p.1.e2.mfst recov.p.1.mfst
Remove recov.p.1.e1
Remove recov.p.1.e1.mfst
Open recov.p.1
ReadAt recov.p.1 0+256
ReadAt recov.p.1 256+256
Open recov.v.1.mfst
ReadAt recov.v.1.mfst 0+227
Open recov.v.1.e1.mfst
Open recov.v.1.prev.mfst
ReadAt recov.v.1.prev.mfst 0+228
Open recov.v.1.prev
ReadAt recov.v.1.prev 0+256
ReadAt recov.v.1.prev 256+256
Open recov.s.1.mfst
ReadAt recov.s.1.mfst 0+228
Open recov.s.1.e2.mfst
Open recov.s.1.prev.mfst`,
}
