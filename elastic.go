package panda

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// Elastic server-pool membership, daemon side.
//
// The daemon's pool has a fixed capacity (DaemonConfig.MaxIONodes) but
// a dynamic population: I/O nodes join at runtime (pandad -join),
// leave through an operator drain (pandastat drain-server), or are
// declared lost when their control connection ends (or, for one that
// goes silent with it open, when their lease lapses). The core tracks
// who is live (core.Membership) and stamps every dispatched operation
// with the slots to avoid; this file is the data-placement half —
// whenever the population changes, committed arrays are *rebalanced* by
// rewriting them through an ordinary collective read+write cycle, so
// the two-phase commit machinery guarantees the destination set is
// durable before the old placement stops being read.
//
// The rebalance session is a real scheduler tenant ("_rebalance"): its
// operations queue behind and serialize with client collectives on the
// same arrays via the scheduler's conflict keys. The read→rewrite pair
// of one array is not transactional, though — a client write landing
// between the two would be superseded — so operators should quiesce
// writers of an array while deliberately draining a server (the usual
// practice for planned maintenance).

// rebalanceTenant names the scheduler tenant internal migrations run
// under, visible in per-tenant metrics and the session table.
const rebalanceTenant = "_rebalance"

// migrateParallel bounds how many arrays a membership rebalance rewrites
// concurrently.
const migrateParallel = 2

// onMemberEvent is the Membership notify hook: every membership change
// lands in the event log, and a join triggers a background rebalance
// that spreads committed data onto the new member. (A member that is
// gone was already cut off by its reservation's cut, under Membership.)
// Runs on the goroutine of the joiner's control connection (or the lease
// watchdog's), with the membership lock released, so anything heavy is
// handed off.
func (d *Daemon) onMemberEvent(ev core.MemberEvent) {
	d.events.Emit(ev.Kind, map[string]any{"slot": ev.Slot, "epoch": ev.Epoch, "addr": ev.Addr})
	d.logf("membership: %s slot=%d epoch=%d addr=%q", ev.Kind, ev.Slot, ev.Epoch, ev.Addr)
	if ev.Kind == "server_join" {
		go func() {
			if err := d.Rebalance(fmt.Sprintf("join slot %d", ev.Slot)); err != nil {
				d.logf("rebalance after join of slot %d: %v", ev.Slot, err)
			}
		}()
	}
}

// Servers returns the live membership table, one row per pool slot —
// the /servers endpoint's payload and pandastat's servers table.
func (d *Daemon) Servers() []core.MemberInfo {
	return d.members.Snapshot(d.svc.Clock().Now())
}

// DrainServer gracefully removes I/O node slot from the pool: new
// writes are fenced off it immediately, every committed array instance
// is migrated onto the surviving members (the slot keeps serving reads
// of the epochs it owns throughout), operations dispatched before the
// fence run to completion on their pre-drain plans, and only then is
// the server told to exit and the slot returned to the vacant pool.
// Slot 0 (the master server) can never drain. On a migration failure
// the slot stays draining — still readable, excluded from writes — so
// the operator can retry.
func (d *Daemon) DrainServer(slot int) error {
	fence, err := d.svc.BeginServerDrain(slot)
	if err != nil {
		return err
	}
	if err := d.Rebalance(fmt.Sprintf("drain slot %d", slot)); err != nil {
		return fmt.Errorf("panda: drain server %d: migration failed (slot left draining): %w", slot, err)
	}
	d.svc.WaitServerIdle(fence)
	return d.svc.FinishServerDrain(slot)
}

// Rebalance rewrites every committed array instance through a normal
// collective read+write cycle, so its chunks land on the current member
// set. Concurrent rebalances coalesce behind one mutex; per-array
// migrations run migrateParallel-wide.
func (d *Daemon) Rebalance(reason string) error {
	d.rebalMu.Lock()
	defer d.rebalMu.Unlock()
	work, err := d.committedInstances()
	if err != nil {
		// Migrating "nothing" would let a drain retire a node that still
		// holds data; with the work unknown, the rebalance fails.
		return fmt.Errorf("panda: rebalance (%s): %w", reason, err)
	}
	d.events.Emit("rebalance_start", map[string]any{"reason": reason, "instances": len(work)})
	d.logf("rebalance (%s): %d committed array instances", reason, len(work))

	sem := make(chan struct{}, migrateParallel)
	errs := make([]error, len(work))
	var wg sync.WaitGroup
	for i, inst := range work {
		wg.Add(1)
		go func(i int, inst arrayInstance) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = d.migrateInstance(inst)
		}(i, inst)
	}
	wg.Wait()

	var firstErr error
	moved := 0
	for i, err := range errs {
		if err == nil {
			moved++
			continue
		}
		d.logf("migrate %s%s: %v", work[i].name, work[i].suffix, err)
		if firstErr == nil {
			firstErr = err
		}
	}
	owners := d.activeSlots()
	d.events.Emit("rebalance_done", map[string]any{
		"reason": reason, "moved": moved, "failed": len(work) - moved, "owners": owners,
	})
	d.logf("rebalance (%s) done: %d/%d instances moved onto servers %v", reason, moved, len(work), owners)
	return firstErr
}

// activeSlots lists the currently Active pool slots.
func (d *Daemon) activeSlots() []int {
	var out []int
	for _, m := range d.Servers() {
		if m.State == core.MemberActive {
			out = append(out, m.Slot)
		}
	}
	sort.Ints(out)
	return out
}

// arrayInstance is one committed file set to migrate: a catalogued
// array under one operation suffix ("" for plain writes, ".t3" for
// timestep 3, ".ckpt" for the checkpoint).
type arrayInstance struct {
	name   string
	suffix string
}

// committedInstances enumerates every committed instance by crossing
// the catalog with the commit decision records on the master server's
// disk (the authority for what was ever committed). A decision key
// belongs to the longest catalogued name it extends by nothing or by a
// "."-led suffix: with arrays "x" and "x.y", "x.y.ckpt" is x.y's
// checkpoint, not an instance ".y.ckpt" of x. A disk that cannot be
// listed, or a record that cannot be read, is an error: the work is
// unknown, not empty.
func (d *Daemon) committedInstances() ([]arrayInstance, error) {
	names, err := d.disks[0].List()
	if err != nil {
		return nil, fmt.Errorf("listing the master server's disk: %w", err)
	}
	entries := d.cat.Entries()
	var out []arrayInstance
	for _, n := range names {
		key, ok := storage.DecisionKey(n)
		if !ok {
			continue
		}
		owner := ""
		for _, e := range entries {
			suffix, ok := strings.CutPrefix(key, e.Name)
			if ok && (suffix == "" || suffix[0] == '.') && len(e.Name) > len(owner) {
				owner = e.Name
			}
		}
		if owner == "" {
			continue
		}
		ep, ok, err := storage.ReadDecision(d.disks[0], key)
		if err != nil {
			return nil, err
		}
		if ok && ep > 0 {
			out = append(out, arrayInstance{name: owner, suffix: key[len(owner):]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].suffix < out[j].suffix
	})
	return out, nil
}

// migrateInstance rewrites one committed array instance: attach a
// single-node internal session, read the whole array (the draining or
// surviving members serve it), write it back (planned over the current
// member set and committed two-phase), detach. The write's epoch bump
// makes the new placement the decided state only after every
// destination synced — a crash mid-migration leaves the old placement
// intact.
func (d *Daemon) migrateInstance(inst arrayInstance) error {
	e, err := d.catalogued(inst.name)
	if err != nil {
		return err
	}
	spec, err := core.DecodeSpec(e.Spec)
	if err != nil {
		return fmt.Errorf("panda: migrate %s: %w", inst.name, err)
	}
	whole := spec
	stars := make([]array.Dist, len(spec.Mem.Shape))
	ms, err := array.NewSchema(spec.Mem.Shape, stars, nil)
	if err != nil {
		return fmt.Errorf("panda: migrate %s: %w", inst.name, err)
	}
	whole.Mem = ms

	// An internal session needs one free client slot; back off briefly
	// if attached sessions hold them all.
	var info core.SessionInfo
	for attempt := 0; ; attempt++ {
		info, err = d.svc.Attach(1, rebalanceTenant)
		if err == nil {
			break
		}
		if attempt >= 50 {
			return fmt.Errorf("panda: migrate %s: no client slot: %w", inst.name, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer d.svc.Detach(info.ID)

	comm, err := d.hub.Local(info.Ranks[0])
	if err != nil {
		return fmt.Errorf("panda: migrate %s: %w", inst.name, err)
	}
	defer mpi.CloseComm(comm) //nolint:errcheck

	// The same reconstructed deployment view a remote session member
	// uses (session.go); the daemon's own config carries hooks and the
	// membership table, which a client must not.
	ccfg := shapeReply(d.svc.Config()).coreConfig()
	cl, err := core.NewSessionClient(ccfg, comm, clock.NewReal(), info.Ranks, 0, info.SeqBase)
	if err != nil {
		return fmt.Errorf("panda: migrate %s: %w", inst.name, err)
	}
	defer cl.Shutdown()
	cl.SetTenant(rebalanceTenant)

	buf := make([]byte, whole.TotalBytes())
	specs := []core.ArraySpec{whole}
	if err := cl.ReadArrays(inst.suffix, specs, [][]byte{buf}); err != nil {
		return fmt.Errorf("panda: migrate %s%s: read: %w", inst.name, inst.suffix, err)
	}
	if err := cl.WriteArrays(inst.suffix, specs, [][]byte{buf}); err != nil {
		return fmt.Errorf("panda: migrate %s%s: rewrite: %w", inst.name, inst.suffix, err)
	}
	return nil
}
