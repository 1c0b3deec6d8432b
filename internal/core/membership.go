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
// Liveness of remote (joined) members is lease-based: the master grants
// a lease at admission, heartbeat frames renew it, and a watchdog under
// the deployment clock expires it — with a deterministic per-slot
// jitter so a herd of members never expires on the same tick. Local
// members (the daemon's own in-process servers) are pinned: they share
// the daemon's fate and carry no lease.

// MemberState is the lifecycle state of one server slot.
type MemberState int

const (
	// MemberAbsent marks an unoccupied capacity slot.
	MemberAbsent MemberState = iota
	// MemberJoining marks a slot reserved for an announced joiner whose
	// ServerHello has not arrived yet; a provisional lease reclaims the
	// slot if it never does.
	MemberJoining
	// MemberActive marks a serving member.
	MemberActive
	// MemberDraining marks a member being gracefully removed: fenced
	// from new writes (so migration can move its chunks off) but still
	// serving reads of the epochs it owns.
	MemberDraining
	// MemberLost marks a member whose lease expired or whose transport
	// died: gone without handoff, the failover replanner's case.
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

// Reserve allocates a slot for an announced joiner: the lowest Absent
// or Lost slot above 0 (slot 0 is the master server, permanently
// pinned) moves to Joining under a provisional lease. The joiner must
// follow up with a ServerHello before the lease expires or the slot is
// reclaimed.
func (m *Membership) Reserve(addr string, now time.Duration) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 1; i < len(m.members); i++ {
		if m.members[i].state == MemberAbsent || m.members[i].state == MemberLost {
			m.epoch++
			m.members[i] = member{
				state:       MemberJoining,
				addr:        addr,
				epoch:       m.epoch,
				leaseExpiry: now + m.leaseTTL + m.jitter(i),
			}
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: server pool full (%d slots): %w", len(m.members), ErrBusy)
}

// Admit activates a reserved slot once its ServerHello arrived on the
// control plane: Joining → Active, fresh lease, epoch bump, join event.
func (m *Membership) Admit(slot int, now time.Duration) error {
	m.mu.Lock()
	if slot < 0 || slot >= len(m.members) || m.members[slot].state != MemberJoining {
		st := MemberAbsent
		if slot >= 0 && slot < len(m.members) {
			st = m.members[slot].state
		}
		m.mu.Unlock()
		return fmt.Errorf("core: ServerHello for slot %d in state %s (want joining)", slot, st)
	}
	m.epoch++
	m.members[slot].state = MemberActive
	m.members[slot].epoch = m.epoch
	m.members[slot].leaseExpiry = now + m.leaseTTL + m.jitter(slot)
	ev := MemberEvent{Kind: "server_join", Slot: slot, Epoch: m.epoch, Addr: m.members[slot].addr}
	notify := m.notify
	m.mu.Unlock()
	if notify != nil {
		notify(ev)
	}
	return nil
}

// Heartbeat renews a remote member's lease. Unknown or pinned slots
// no-op (a straggler heartbeat from a slot already reclaimed must not
// resurrect it).
func (m *Membership) Heartbeat(slot int, now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot < 0 || slot >= len(m.members) {
		return
	}
	mb := &m.members[slot]
	if mb.leaseExpiry == 0 {
		return
	}
	switch mb.state {
	case MemberJoining, MemberActive, MemberDraining:
		mb.leaseExpiry = now + m.leaseTTL + m.jitter(slot)
	}
}

// StartDrain fences a member from new writes: Active → Draining with an
// epoch bump. It returns the fence epoch — operations dispatched under
// earlier epochs are the "in-flight before the drain" set WaitServerIdle
// waits out. Slot 0 (the master server) can never drain.
func (m *Membership) StartDrain(slot int) (uint32, error) {
	m.mu.Lock()
	if slot <= 0 || slot >= len(m.members) {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: cannot drain server %d of pool %d (slot 0 is the master)", slot, len(m.members))
	}
	if st := m.members[slot].state; st != MemberActive {
		m.mu.Unlock()
		return 0, fmt.Errorf("core: drain server %d: state %s (want active)", slot, st)
	}
	m.epoch++
	fence := m.epoch
	m.members[slot].state = MemberDraining
	m.members[slot].epoch = fence
	ev := MemberEvent{Kind: "server_drain", Slot: slot, Epoch: fence, Addr: m.members[slot].addr}
	notify := m.notify
	m.mu.Unlock()
	if notify != nil {
		notify(ev)
	}
	return fence, nil
}

// FinishDrain releases a drained member's slot: Draining → Absent, the
// lease cleared, a server_left event. Called only after migration has
// rewritten the member's chunks onto the survivors and its pre-drain
// operations have quiesced.
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
	ev := MemberEvent{Kind: "server_left", Slot: slot, Epoch: m.epoch, Addr: addr}
	notify := m.notify
	m.mu.Unlock()
	if notify != nil {
		notify(ev)
	}
	return nil
}

// MarkLost declares a member dead without handoff (transport death or
// lease expiry): → Lost, lease cleared, epoch bump, server_lost event.
// Idempotent for already-lost slots; pinned local members (and slot 0)
// are never marked — they share the daemon's fate.
func (m *Membership) MarkLost(slot int) bool {
	m.mu.Lock()
	if slot <= 0 || slot >= len(m.members) {
		m.mu.Unlock()
		return false
	}
	mb := &m.members[slot]
	if mb.local {
		m.mu.Unlock()
		return false
	}
	switch mb.state {
	case MemberActive, MemberDraining, MemberJoining:
	default:
		m.mu.Unlock()
		return false
	}
	m.epoch++
	mb.state = MemberLost
	mb.epoch = m.epoch
	mb.leaseExpiry = 0
	ev := MemberEvent{Kind: "server_lost", Slot: slot, Epoch: m.epoch, Addr: mb.addr}
	notify := m.notify
	m.mu.Unlock()
	if notify != nil {
		notify(ev)
	}
	return true
}

// ExpireLeases sweeps every leased member whose lease lapsed at now:
// Joining slots are silently reclaimed to Absent (the joiner never said
// hello), serving members are MarkLost. It returns the slots lost. The
// Service's watchdog calls this every HeartbeatEvery under the deployment
// clock, so expiry is vtime-deterministic in simulation.
func (m *Membership) ExpireLeases(now time.Duration) []int {
	m.mu.Lock()
	var lost, reclaim []int
	for i := range m.members {
		mb := &m.members[i]
		if mb.leaseExpiry == 0 || now < mb.leaseExpiry {
			continue
		}
		if mb.state == MemberJoining {
			reclaim = append(reclaim, i)
		} else {
			lost = append(lost, i)
		}
	}
	for _, i := range reclaim {
		m.epoch++
		m.members[i] = member{state: MemberAbsent, epoch: m.epoch}
	}
	m.mu.Unlock()
	for _, i := range lost {
		m.MarkLost(i)
	}
	return lost
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
