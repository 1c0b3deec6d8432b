package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// TestMembershipLifecycle walks one slot through the full elastic
// journey — reserve, admit, drain, release — checking the epoch
// advances on every transition and the planner-facing views
// (DownForWrite, DownForRead, Gone) say the right thing at each stop.
func TestMembershipLifecycle(t *testing.T) {
	m := NewMembership(4, 2, time.Second, 0)
	var events []MemberEvent
	m.SetNotify(func(ev MemberEvent) { events = append(events, ev) })

	if got := m.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	if m.ActiveCount() != 2 || m.Capacity() != 4 {
		t.Fatalf("active=%d capacity=%d, want 2/4", m.ActiveCount(), m.Capacity())
	}
	if got := m.DownForWrite(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("vacant slots not fenced: DownForWrite=%v", got)
	}

	// Reserve: lowest free slot above 0, provisionally leased.
	c, err := m.Reserve("host9:/scratch", 0, nil)
	if err != nil || c.Slot != 2 || c.Epoch != m.Epoch() {
		t.Fatalf("Reserve = %+v, %v; want slot 2 at epoch %d", c, err, m.Epoch())
	}
	if st := m.State(2); st != MemberJoining {
		t.Fatalf("state after reserve = %s", st)
	}
	if !m.Gone(2) {
		t.Fatal("a Joining slot must still be Gone for planning purposes")
	}
	if m.Leases() != 1 {
		t.Fatalf("leases = %d, want 1 (provisional)", m.Leases())
	}

	// Admit: serving, fenced-in, join event.
	if err := m.Admit(c, 0); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if st := m.State(2); st != MemberActive {
		t.Fatalf("state after admit = %s", st)
	}
	if got := m.DownForWrite(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("DownForWrite after admit = %v, want [3]", got)
	}
	if len(events) != 1 || events[0].Kind != "server_join" || events[0].Slot != 2 {
		t.Fatalf("join event = %+v", events)
	}
	if err := m.Admit(c, 0); err == nil {
		t.Fatal("double Admit accepted")
	}

	// Drain: fenced from writes, still readable, not Gone.
	fence, err := m.StartDrain(2)
	if err != nil {
		t.Fatalf("StartDrain: %v", err)
	}
	if fence != m.Epoch() {
		t.Fatalf("fence %d != epoch %d", fence, m.Epoch())
	}
	if again, err := m.StartDrain(2); err != nil || again != fence {
		t.Fatalf("retried StartDrain = %d, %v; want the standing fence %d", again, err, fence)
	}
	if got := m.DownForWrite(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("DownForWrite while draining = %v", got)
	}
	if got := m.DownForRead(); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("DownForRead while draining = %v (draining members serve reads)", got)
	}
	if m.Gone(2) {
		t.Fatal("a Draining member is not Gone: pre-drain ops still complete on it")
	}

	if err := m.FinishDrain(2); err != nil {
		t.Fatalf("FinishDrain: %v", err)
	}
	if st := m.State(2); st != MemberAbsent {
		t.Fatalf("state after release = %s", st)
	}
	if m.Leases() != 0 {
		t.Fatalf("leases after release = %d, want 0", m.Leases())
	}
	kinds := []string{}
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	if !reflect.DeepEqual(kinds, []string{"server_join", "server_drain", "server_left"}) {
		t.Fatalf("event stream = %v", kinds)
	}

	// Guard rails: the master slot never drains; locals hold no claim,
	// so nothing can release them, and carry no lease to lapse.
	if _, err := m.StartDrain(0); err == nil {
		t.Fatal("drained the master server")
	}
	epoch := m.Epoch()
	for _, slot := range []int{0, 1} {
		m.Release(Claim{Slot: slot})
		if err := m.Heartbeat(Claim{Slot: slot}, 0); err == nil {
			t.Fatalf("a claimless heartbeat renewed local slot %d", slot)
		}
	}
	if lost := m.ExpireLeases(time.Hour); len(lost) != 0 || m.State(0) != MemberActive || m.State(1) != MemberActive || m.Epoch() != epoch {
		t.Fatalf("locals touched: lost=%v states=%s,%s epoch %d→%d", lost, m.State(0), m.State(1), epoch, m.Epoch())
	}
}

// TestMembershipPoolFull: a pool with every slot occupied refuses
// further joiners with the typed busy error.
func TestMembershipPoolFull(t *testing.T) {
	m := NewMembership(2, 2, time.Second, 0)
	if _, err := m.Reserve("x", 0, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("full pool Reserve error = %v, want ErrBusy", err)
	}
}

// TestMembershipLeaseExpiry drives the lease clock by hand: a reserved
// slot whose joiner never says hello is silently reclaimed; an admitted
// member that stops heartbeating is declared lost; one that keeps
// heartbeating survives sweep after sweep.
func TestMembershipLeaseExpiry(t *testing.T) {
	const ttl = time.Second
	m := NewMembership(4, 1, ttl, 0)
	var events []MemberEvent
	m.SetNotify(func(ev MemberEvent) { events = append(events, ev) })

	// Ghost joiner: reserved, never admitted.
	ghost, err := m.Reserve("ghost", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Live member: admitted and heartbeating.
	live, err := m.Reserve("live", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(live, 0); err != nil {
		t.Fatal(err)
	}

	// Before any lease lapses, a sweep is a no-op.
	if lost := m.ExpireLeases(ttl / 2); len(lost) != 0 {
		t.Fatalf("premature expiry: %v", lost)
	}
	// The live member heartbeats; the ghost doesn't. Jitter extends a
	// lease by at most ttl/8, so 2*ttl is safely past both originals.
	if err := m.Heartbeat(live, ttl); err != nil {
		t.Fatal(err)
	}
	lost := m.ExpireLeases(2 * ttl)
	if len(lost) != 0 {
		t.Fatalf("heartbeating member lost: %v", lost)
	}
	if st := m.State(ghost.Slot); st != MemberAbsent {
		t.Fatalf("ghost reclaimed to %s, want absent", st)
	}
	for _, ev := range events {
		if ev.Kind == "server_lost" {
			t.Fatalf("silent reclaim emitted %+v", ev)
		}
	}

	// Now the live member goes quiet too.
	lost = m.ExpireLeases(4 * ttl)
	if len(lost) != 1 || lost[0] != live.Slot {
		t.Fatalf("lost = %v, want [%d]", lost, live.Slot)
	}
	if st := m.State(live.Slot); st != MemberLost {
		t.Fatalf("state = %s, want lost", st)
	}
	if !m.Gone(live.Slot) {
		t.Fatal("lost member not Gone")
	}
	if m.Leases() != 0 {
		t.Fatalf("leaked leases: %d", m.Leases())
	}
	last := events[len(events)-1]
	if last.Kind != "server_lost" || last.Slot != live.Slot {
		t.Fatalf("last event = %+v", last)
	}

	// A straggler heartbeat must not resurrect the corpse.
	if err := m.Heartbeat(live, 4*ttl); err == nil {
		t.Fatal("a straggler heartbeat for a lost slot was accepted")
	}
	if st := m.State(live.Slot); st != MemberLost {
		t.Fatalf("straggler heartbeat resurrected the member: %s", st)
	}
	// But both freed slots are reusable: the next joiners get the
	// reclaimed ghost slot (lowest first) and then the lost one.
	if c, err := m.Reserve("reborn", 5*ttl, nil); err != nil || c.Slot != ghost.Slot {
		t.Fatalf("Reserve after reclaim = %+v, %v; want slot %d", c, err, ghost.Slot)
	}
	if c, err := m.Reserve("reborn2", 5*ttl, nil); err != nil || c.Slot != live.Slot {
		t.Fatalf("Reserve after loss = %+v, %v; want slot %d", c, err, live.Slot)
	}
}

// TestMembershipClaimBindsSlot: a reservation's claim is the only key
// to its slot. The end of its connection reclaims a Joining slot
// silently and loses an Active one, exactly as a lapsed lease does; a
// drained slot is the drain's, so its claim releases nothing; and once
// a lost slot is reserved again, the old claim neither renews nor
// releases the new holder's.
func TestMembershipClaimBindsSlot(t *testing.T) {
	m := NewMembership(4, 1, time.Second, 0)
	var events []string
	m.SetNotify(func(ev MemberEvent) { events = append(events, fmt.Sprintf("%s:%d", ev.Kind, ev.Slot)) })

	// A joiner that hangs up before it is ready leaves no trace.
	ghost, _ := m.Reserve("ghost", 0, nil)
	m.Release(ghost)
	if st := m.State(ghost.Slot); st != MemberAbsent || m.Leases() != 0 || len(events) != 0 {
		t.Fatalf("released reservation: state %s, %d leases, events %v", st, m.Leases(), events)
	}

	// A serving joiner that hangs up is lost at once.
	a, _ := m.Reserve("a", 0, nil)
	if err := m.Admit(ghost, 0); err == nil {
		t.Fatal("a released claim admitted the slot")
	}
	if err := m.Admit(a, 0); err != nil {
		t.Fatal(err)
	}
	m.Release(a)
	if st := m.State(a.Slot); st != MemberLost || m.Leases() != 0 {
		t.Fatalf("hung-up member: state %s, %d leases; want lost, 0", st, m.Leases())
	}

	// The lost slot is reserved again; the old claim is stale.
	b, _ := m.Reserve("b", 0, nil)
	if b.Slot != a.Slot {
		t.Fatalf("reservation after loss took slot %d, want %d", b.Slot, a.Slot)
	}
	if err := m.Heartbeat(a, 0); err == nil {
		t.Fatal("a stale claim renewed the new holder's lease")
	}
	if err := m.Admit(a, 0); err == nil {
		t.Fatal("a stale claim admitted the new holder's slot")
	}
	m.Release(a)
	if st := m.State(b.Slot); st != MemberJoining {
		t.Fatalf("a stale release moved the new holder to %s", st)
	}

	// A drained slot belongs to the drain: the victim's hang-up after
	// the release is no loss.
	if err := m.Admit(b, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartDrain(b.Slot); err != nil {
		t.Fatal(err)
	}
	if err := m.FinishDrain(b.Slot); err != nil {
		t.Fatal(err)
	}
	m.Release(b)
	if st := m.State(b.Slot); st != MemberAbsent {
		t.Fatalf("drained slot after hang-up = %s, want absent", st)
	}
	want := []string{"server_join:1", "server_lost:1", "server_join:1", "server_drain:1", "server_left:1"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events %v, want %v", events, want)
	}
}

// TestMembershipJitterDeterminism: the per-slot lease slack is a pure
// function of the slot, so virtual-time runs replay bit-exact, and it
// differs across slots so a herd never expires on one tick.
func TestMembershipJitterDeterminism(t *testing.T) {
	m := NewMembership(8, 1, 8*time.Second, 0)
	for slot := 0; slot < 8; slot++ {
		if a, b := m.jitter(slot), m.jitter(slot); a != b {
			t.Fatalf("slot %d jitter not deterministic: %v vs %v", slot, a, b)
		}
		if j := m.jitter(slot); j < 0 || j > time.Second {
			t.Fatalf("slot %d jitter %v outside [0, ttl/8]", slot, j)
		}
	}
	if m.jitter(1) == m.jitter(2) {
		t.Fatal("adjacent slots share a jitter; expiry herds possible")
	}
}

// TestMembershipInFlightFence: the master's dispatch table is the drain
// fence. A write held at a gated disk is listed with the membership
// epoch it was planned under; a fence above that epoch waits for it, a
// fence at it does not; and the table is empty once the write retires.
func TestMembershipInFlightFence(t *testing.T) {
	members := NewMembership(2, 2, time.Hour, 10*time.Millisecond)
	cfg := Config{NumClients: 1, NumServers: 2, SubchunkBytes: 1 << 10, OpTimeout: 10 * time.Second,
		Service: true, Sched: SchedConfig{MaxInflight: 1}, Members: members}
	world := mpi.NewWorld(cfg.WorldSize())
	gate := &gatedDisk{Disk: storage.NewMemDisk(), gate: make(chan struct{})}
	svc, err := NewService(cfg, []storage.Disk{gate, storage.NewMemDisk()})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewReal()
	loopback := func(to, tag int, data []byte) { world.Comm(to).SendOwned(to, tag, data) }
	if err := svc.Start([]mpi.Comm{world.Comm(cfg.ServerRank(0)), world.Comm(cfg.ServerRank(1))}, loopback, clk); err != nil {
		t.Fatal(err)
	}
	info, err := svc.Attach(1, "t")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewSessionClient(cfg, world.Comm(info.Ranks[0]), clk, info.Ranks, 0, info.SeqBase)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetTenant("t")
	specs := []ArraySpec{schedSpec("fence", 1)}
	wrote := make(chan error, 1)
	go func() { wrote <- cl.WriteArrays("", specs, makeBufs(cl, specs, true)) }()

	var held []DispatchedOp
	for wait := 0; len(held) == 0 && wait < 500; wait++ {
		time.Sleep(2 * time.Millisecond)
		held = svc.Dispatched()
	}
	want := DispatchedOp{Seq: info.SeqBase, Tenant: "t", Op: "write", MemberEpoch: 1}
	if len(held) != 1 {
		t.Fatalf("dispatch table %+v, want the one held write", held)
	}
	if got := held[0]; got.Seq != want.Seq || got.Tenant != want.Tenant || got.Op != want.Op || got.MemberEpoch != want.MemberEpoch {
		t.Fatalf("dispatch table lists %+v, want %+v", got, want)
	}
	ownEpoch := make(chan struct{})
	go func() { svc.WaitServerIdle(held[0].MemberEpoch); close(ownEpoch) }()
	select {
	case <-ownEpoch:
	case <-time.After(5 * time.Second):
		t.Fatal("a fence at the write's own epoch waits for it")
	}

	fence, err := svc.BeginServerDrain(1)
	if err != nil || fence != 2 {
		t.Fatalf("BeginServerDrain = %d, %v; want fence 2", fence, err)
	}
	idle := make(chan struct{})
	go func() { svc.WaitServerIdle(fence); close(idle) }()
	select {
	case <-idle:
		t.Fatal("the fence passed a write dispatched before it")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.gate)
	select {
	case <-idle:
	case <-time.After(5 * time.Second):
		t.Fatal("the fence never passed after the write retired")
	}
	if err := <-wrote; err != nil {
		t.Fatalf("held write: %v", err)
	}
	if ops := svc.Dispatched(); len(ops) != 0 {
		t.Fatalf("dispatch table not empty after retirement: %+v", ops)
	}
	cl.Shutdown()
	svc.Detach(info.ID)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestOpRequestMemberEpochRoundTrip: the third optional tail survives
// encode/decode in every tail combination, and a request without any
// elastic stamp stays identical to the legacy wire format.
func TestOpRequestMemberEpochRoundTrip(t *testing.T) {
	base := opRequest{Op: opWrite, Seq: 9, Suffix: ".t1",
		Specs: []ArraySpec{{Name: "A", ElemSize: 4}}, Epochs: []uint64{0}}

	cases := []opRequest{base}
	withEpoch := base
	withEpoch.MemberEpoch = 7
	cases = append(cases, withEpoch)
	withAll := base
	withAll.Tenant = "sim"
	withAll.Ranks = []int{4, 5}
	withAll.MemberEpoch = 12
	withAll.Deads = []int{1, 3}
	cases = append(cases, withAll)
	epochNoTenant := base
	epochNoTenant.Ranks = []int{2}
	epochNoTenant.MemberEpoch = 3
	cases = append(cases, epochNoTenant)

	for i, req := range cases {
		got, err := decodeOpRequest(encodeOpRequest(req))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.MemberEpoch != req.MemberEpoch || got.Tenant != req.Tenant ||
			!reflect.DeepEqual(got.Ranks, req.Ranks) || !reflect.DeepEqual(got.Deads, req.Deads) {
			t.Fatalf("case %d: round trip lost tails: %+v vs %+v", i, got, req)
		}
	}

	// Static deployments must emit the pre-elastic frame byte-for-byte.
	plain := encodeOpRequest(base)
	stamped := encodeOpRequest(withEpoch)
	if len(stamped) <= len(plain) {
		t.Fatalf("stamped frame (%d B) not longer than legacy (%d B)", len(stamped), len(plain))
	}
}
