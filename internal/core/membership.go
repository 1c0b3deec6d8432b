package core

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Elastic server-pool membership.
//
// The paper's server set is fixed at job launch; a resident service
// (pandad) wants I/O nodes that join, drain and fail at runtime. The
// communicator shape stays fixed — NumServers is the pool's *capacity*,
// so rank arithmetic, tags and the hub never change — and Membership
// tracks which of those capacity slots currently hold a live server.
// Slots not Active are expressed to the planning machinery as the
// operation's Deads list, stamped by the master's scheduler at dispatch,
// which routes the whole elastic story through the failover replanner's
// well-tested chunk-reassignment path (plan.go, commit.go).
//
// Every state change bumps a monotonically increasing *membership
// epoch*; operations are stamped with the epoch they were dispatched
// under, so a drain can wait for exactly the operations planned before
// it ("in-flight ops complete on their pre-drain plan snapshot") and
// servers invalidate their plan caches when the epoch moves.
//
// A remote (joined) member is bound to the reservation that made it: a
// Claim, which its daemon control connection holds. Only that claim
// admits the slot, renews its lease and — when the connection ends —
// releases it. The reservation also carries its cut, which severs the
// member's connections; Membership runs it when the member is gone, so
// a departed member holds nothing the slot's next joiner needs. The
// lease is the backstop for a member that keeps its connection open and
// goes silent: the claim's heartbeats renew it, and a watchdog under the
// deployment clock expires it, with a deterministic per-slot jitter so
// a herd of members never expires on the same tick. Local members (the
// daemon's own in-process servers) are pinned: they share the daemon's
// fate and carry no lease.

// MemberState is the lifecycle state of one server slot.
type MemberState int

const (
	// MemberAbsent marks an unoccupied capacity slot.
	MemberAbsent MemberState = iota
	// MemberJoining marks a slot reserved for an announced joiner that
	// has not said it is ready yet; a provisional lease reclaims the
	// slot if it never does.
	MemberJoining
	// MemberActive marks a serving member.
	MemberActive
	// MemberDraining marks a member being gracefully removed: fenced
	// from new writes (so migration can move its chunks off) but still
	// serving reads of the epochs it owns.
	MemberDraining
	// MemberLost marks a member whose control connection ended or whose
	// lease expired: gone without handoff, the failover replanner's case.
	MemberLost
)

// String renders the state the way /servers and the event log spell it.
func (s MemberState) String() string {
	switch s {
	case MemberAbsent:
		return "absent"
	case MemberJoining:
		return "joining"
	case MemberActive:
		return "active"
	case MemberDraining:
		return "draining"
	case MemberLost:
		return "lost"
	}
	return fmt.Sprintf("state%d", int(s))
}

// MemberInfo is the published view of one slot.
type MemberInfo struct {
	Slot  int         `json:"slot"`
	State MemberState `json:"-"`
	// StateName mirrors State for JSON consumers (pandastat).
	StateName string `json:"state"`
	// Local marks an in-process server of the daemon itself: pinned,
	// lease-exempt. Remote joiners are not Local.
	Local bool `json:"local"`
	// Addr is the joiner's advertised origin; empty for local members.
	Addr string `json:"addr,omitempty"`
	// Epoch is the membership epoch of the slot's last state change.
	Epoch uint32 `json:"epoch"`
	// LeaseMs is the remaining lease in milliseconds (-1 = pinned).
	LeaseMs int64 `json:"lease_ms"`
}

// MemberEvent describes one membership change for the event stream.
type MemberEvent struct {
	Kind  string // "server_join", "server_drain", "server_left", "server_lost"
	Slot  int
	Epoch uint32
	Addr  string
}

type member struct {
	state MemberState
	local bool
	addr  string
	epoch uint32 // epoch at last state change
	claim uint32 // epoch of the reservation that holds the slot; 0 for locals
	// cut severs the reservation's connections (Reserve's cut); gone
	// runs it once, and a drained slot drops it unrun.
	cut func(slot int)
	// leaseExpiry is the deployment-clock time the lease dies; zero for
	// pinned (local) members and unoccupied slots.
	leaseExpiry time.Duration
}

// Membership tracks which server slots of a fixed-capacity pool are
// live. It is shared by pointer through Config.Members between the
// Service, the master server's scheduler router, and the daemon; all
// methods are safe for concurrent use.
type Membership struct {
	mu      sync.Mutex
	members []member
	epoch   uint32
	notify  func(MemberEvent)
	// leaseTTL and heartbeat are the lease timing, fixed at construction:
	// what the master enforces, what the watchdog sweeps at and what a
	// joiner is told to beat at all read these.
	leaseTTL, heartbeat time.Duration
}

// DefaultLeaseTTL is the lease bound NewMembership applies to zero.
const DefaultLeaseTTL = 10 * time.Second

// NewMembership builds a pool of the given capacity with slots
// [0, active) Active and Local, the rest Absent. leaseTTL bounds how
// long a remote member may miss heartbeats (0 = DefaultLeaseTTL);
// heartbeat is the cadence joined members renew their leases at and the
// watchdog sweeps at (0 = leaseTTL/4).
func NewMembership(capacity, active int, leaseTTL, heartbeat time.Duration) *Membership {
	if leaseTTL <= 0 {
		leaseTTL = DefaultLeaseTTL
	}
	if heartbeat <= 0 {
		heartbeat = leaseTTL / 4
	}
	m := &Membership{
		members:   make([]member, capacity),
		epoch:     1,
		leaseTTL:  leaseTTL,
		heartbeat: heartbeat,
	}
	for i := 0; i < active && i < capacity; i++ {
		m.members[i] = member{state: MemberActive, local: true, epoch: 1}
	}
	return m
}

// LeaseTTL is how long a joined member may go without a heartbeat
// before it is declared lost.
func (m *Membership) LeaseTTL() time.Duration { return m.leaseTTL }

// HeartbeatEvery is the cadence joined members renew their leases at.
func (m *Membership) HeartbeatEvery() time.Duration { return m.heartbeat }

// SetNotify installs the membership-change callback (the daemon's event
// emitter). Called once at wiring time, before any churn.
func (m *Membership) SetNotify(fn func(MemberEvent)) {
	m.mu.Lock()
	m.notify = fn
	m.mu.Unlock()
}

// Epoch returns the current membership epoch.
func (m *Membership) Epoch() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Capacity returns the pool's slot count (== Config.NumServers).
func (m *Membership) Capacity() int { return len(m.members) }

// State returns one slot's current state.
func (m *Membership) State(slot int) MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot < 0 || slot >= len(m.members) {
		return MemberAbsent
	}
	return m.members[slot].state
}

// Snapshot publishes every slot's view at the given clock time.
func (m *Membership) Snapshot(now time.Duration) []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberInfo, len(m.members))
	for i, mb := range m.members {
		info := MemberInfo{Slot: i, State: mb.state, StateName: mb.state.String(),
			Local: mb.local, Addr: mb.addr, Epoch: mb.epoch, LeaseMs: -1}
		if mb.leaseExpiry > 0 {
			info.LeaseMs = int64((mb.leaseExpiry - now) / time.Millisecond)
		}
		out[i] = info
	}
	return out
}

// ActiveCount returns the number of Active members.
func (m *Membership) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, mb := range m.members {
		if mb.state == MemberActive {
			n++
		}
	}
	return n
}

// Leases counts live leases — the quantity the churn battery asserts is
// zero once every remote member has drained or been declared lost.
func (m *Membership) Leases() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, mb := range m.members {
		if mb.leaseExpiry > 0 {
			n++
		}
	}
	return n
}

// DownForWrite lists (sorted) the slots a write dispatched now must
// exclude: everything not Active. Draining members are fenced from new
// writes so migration converges; Joining members are not yet serving.
func (m *Membership) DownForWrite() []int {
	return m.downWhere(func(s MemberState) bool { return s != MemberActive })
}

// DownForRead lists (sorted) the slots a read dispatched now must
// exclude. Draining members still serve reads of the epochs they own —
// that is what lets migration copy their chunks off.
func (m *Membership) DownForRead() []int {
	return m.downWhere(func(s MemberState) bool {
		return s != MemberActive && s != MemberDraining
	})
}

func (m *Membership) downWhere(down func(MemberState) bool) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for i, mb := range m.members {
		if down(mb.state) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Gone reports whether a slot is dead for in-flight purposes (Lost or
// Absent) — the lease layer's feed into Server.serverGone, hence into
// every collection the master runs. Draining members are NOT gone:
// in-flight operations planned before the drain still complete on
// them.
func (m *Membership) Gone(slot int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot < 0 || slot >= len(m.members) {
		return false
	}
	s := m.members[slot].state
	return s == MemberLost || s == MemberAbsent || s == MemberJoining
}

// Claim names one reservation of a slot: the slot and the membership
// epoch the reservation was made in, which no later reservation shares.
// It is what the joiner's control connection holds, and the only thing
// that can make the slot ready, renew its lease or release it — so a
// connection whose slot was lost and reserved again renews nothing.
type Claim struct {
	Slot  int
	Epoch uint32
}

// Reserve allocates a slot for an announced joiner: the lowest Absent
// or Lost slot above 0 (slot 0 is the master server, permanently
// pinned) moves to Joining under a provisional lease. The joiner must
// say it is ready (Admit) before the lease expires or the slot is
// reclaimed. cut (nil for none) severs the reservation's connections —
// the daemon closes the control connection and drops the slot's hub
// rank — and runs once, under the membership lock, when the member is
// gone: reclaimed, lost by its lease or released. It must not call back
// into Membership.
func (m *Membership) Reserve(addr string, now time.Duration, cut func(slot int)) (Claim, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 1; i < len(m.members); i++ {
		if m.members[i].state == MemberAbsent || m.members[i].state == MemberLost {
			m.epoch++
			m.members[i] = member{
				state:       MemberJoining,
				addr:        addr,
				epoch:       m.epoch,
				claim:       m.epoch,
				cut:         cut,
				leaseExpiry: now + m.leaseTTL + m.jitter(i),
			}
			return Claim{Slot: i, Epoch: m.epoch}, nil
		}
	}
	return Claim{}, fmt.Errorf("core: server pool full (%d slots): %w", len(m.members), ErrBusy)
}

// held returns the slot c still holds — until the slot is lost, drained
// or reclaimed — or an error. Caller holds m.mu.
func (m *Membership) held(c Claim, verb string) (*member, error) {
	if c.Epoch == 0 || c.Slot <= 0 || c.Slot >= len(m.members) || m.members[c.Slot].claim != c.Epoch {
		return nil, fmt.Errorf("core: %s: no live reservation of slot %d (epoch %d)", verb, c.Slot, c.Epoch)
	}
	return &m.members[c.Slot], nil
}

// Admit activates a reserved slot once its joiner is registered on the
// hub and says it is ready: Joining → Active, fresh lease, epoch bump,
// join event.
func (m *Membership) Admit(c Claim, now time.Duration) error {
	m.mu.Lock()
	mb, err := m.held(c, "server-ready")
	if err == nil && mb.state != MemberJoining {
		err = fmt.Errorf("core: server-ready for slot %d in state %s (want joining)", c.Slot, mb.state)
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.epoch++
	mb.state = MemberActive
	mb.epoch = m.epoch
	mb.leaseExpiry = now + m.leaseTTL + m.jitter(c.Slot)
	m.unlockNotify(MemberEvent{Kind: "server_join", Slot: c.Slot, Epoch: m.epoch, Addr: mb.addr})
	return nil
}

// Heartbeat renews the lease of the slot c holds. A claim whose slot was
// lost (a straggler must not resurrect it), drained, or reserved again
// by another joiner renews nothing and is an error.
func (m *Membership) Heartbeat(c Claim, now time.Duration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, err := m.held(c, "heartbeat")
	if err == nil {
		mb.leaseExpiry = now + m.leaseTTL + m.jitter(c.Slot)
	}
	return err
}

// StartDrain fences a member from new writes: Active → Draining with an
// epoch bump. It returns the fence epoch — operations dispatched under
// earlier epochs are the "in-flight before the drain" set WaitServerIdle
// waits out. A slot still Draining (its migration failed) returns the
// fence it was drained at, so the drain can be retried. Slot 0 (the
// master server) can never drain.
func (m *Membership) StartDrain(slot int) (uint32, error) {
	m.mu.Lock()
	if slot <= 0 || slot >= len(m.members) {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: cannot drain server %d of pool %d (slot 0 is the master)", slot, len(m.members))
	}
	switch st := m.members[slot].state; st {
	case MemberActive:
	case MemberDraining:
		fence := m.members[slot].epoch
		m.mu.Unlock()
		return fence, nil
	default:
		m.mu.Unlock()
		return 0, fmt.Errorf("core: drain server %d: state %s (want active)", slot, st)
	}
	m.epoch++
	fence := m.epoch
	m.members[slot].state = MemberDraining
	m.members[slot].epoch = fence
	m.unlockNotify(MemberEvent{Kind: "server_drain", Slot: slot, Epoch: fence, Addr: m.members[slot].addr})
	return fence, nil
}

// FinishDrain releases a drained member's slot: Draining → Absent, the
// lease cleared, a server_left event. Called only after migration has
// rewritten the member's chunks onto the survivors and its pre-drain
// operations have quiesced. It cuts nothing: the node's shutdown frame
// goes out over its rank afterwards, and the node hangs up itself.
func (m *Membership) FinishDrain(slot int) error {
	m.mu.Lock()
	if slot < 0 || slot >= len(m.members) || m.members[slot].state != MemberDraining {
		st := MemberAbsent
		if slot >= 0 && slot < len(m.members) {
			st = m.members[slot].state
		}
		m.mu.Unlock()
		return fmt.Errorf("core: finish drain of server %d in state %s", slot, st)
	}
	m.epoch++
	local := m.members[slot].local
	addr := m.members[slot].addr
	m.members[slot] = member{state: MemberAbsent, local: local, epoch: m.epoch}
	m.unlockNotify(MemberEvent{Kind: "server_left", Slot: slot, Epoch: m.epoch, Addr: addr})
	return nil
}

// Release declares the slot c holds gone because its joiner's control
// connection ended — the same rule a lapsed lease applies (gone). A slot
// the claim no longer holds (drained, lost, or reserved again) is left
// alone.
func (m *Membership) Release(c Claim) {
	m.mu.Lock()
	var evs []MemberEvent
	if _, err := m.held(c, "release"); err == nil {
		evs = m.gone(c.Slot, evs)
	}
	m.unlockNotify(evs...)
}

// ExpireLeases sweeps every leased member whose lease lapsed at now and
// declares it gone. It returns the slots lost. The Service's watchdog
// calls this every HeartbeatEvery under the deployment clock, so expiry
// is vtime-deterministic in simulation.
func (m *Membership) ExpireLeases(now time.Duration) []int {
	m.mu.Lock()
	var evs []MemberEvent
	for i := range m.members {
		if mb := &m.members[i]; mb.leaseExpiry > 0 && now >= mb.leaseExpiry {
			evs = m.gone(i, evs)
		}
	}
	var lost []int
	for _, ev := range evs {
		lost = append(lost, ev.Slot)
	}
	m.unlockNotify(evs...)
	return lost
}

// gone is the one rule for a remote member that is no longer there,
// whether its control connection ended or its lease lapsed: its
// reservation's cut runs, before the slot can be reserved again; a
// Joining slot is then reclaimed to Absent silently (it never served); a
// serving or draining one goes Lost, with its lease and claim cleared,
// an epoch bump, and a server_lost event appended to evs. Pinned locals
// and slots already Absent or Lost are left alone. Caller holds m.mu.
func (m *Membership) gone(slot int, evs []MemberEvent) []MemberEvent {
	mb := &m.members[slot]
	if mb.local || (mb.state != MemberJoining && mb.state != MemberActive && mb.state != MemberDraining) {
		return evs
	}
	if mb.cut != nil {
		mb.cut(slot)
	}
	m.epoch++
	if mb.state == MemberJoining {
		*mb = member{state: MemberAbsent, epoch: m.epoch}
		return evs
	}
	*mb = member{state: MemberLost, addr: mb.addr, epoch: m.epoch}
	return append(evs, MemberEvent{Kind: "server_lost", Slot: slot, Epoch: m.epoch, Addr: mb.addr})
}

// unlockNotify lets go of m.mu, then hands evs to the notify hook (the
// daemon's event emitter and rebalance trigger), which must not run
// under the lock.
func (m *Membership) unlockNotify(evs ...MemberEvent) {
	notify := m.notify
	m.mu.Unlock()
	for i := 0; notify != nil && i < len(evs); i++ {
		notify(evs[i])
	}
}

// jitter is the per-slot lease slack: deterministic (a function of the
// slot, not of a random source) so vtime runs replay exactly, yet
// distinct per slot so members never expire on the same tick.
func (m *Membership) jitter(slot int) time.Duration {
	if len(m.members) == 0 {
		return 0
	}
	return m.leaseTTL / 8 * time.Duration(slot%8) / 8
}
