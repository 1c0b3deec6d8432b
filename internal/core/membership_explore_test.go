package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The membership explorer drives a Membership through every sequence of
// inputs up to a depth, breadth first, skipping states it has already
// seen, and checks the pool's invariants after every step. A joiner is
// modelled by its claim, its control connection and the hub rank of its
// slot; the reservation's cut closes the connection and drops the rank,
// as the daemon's does.

// xInput is one explorer input: an operation and its joiner or slot.
type xInput struct {
	op  string
	arg int
}

// xJoiner is one modelled joiner: the claim its connection holds,
// whether that connection is open, and whether its slot was drained.
type xJoiner struct {
	claim   Claim
	open    bool
	drained bool
}

// xWorld is a Membership under a fake clock plus the daemon-side facts a
// departure has to undo: which joiner holds each slot's hub rank.
type xWorld struct {
	m       *Membership
	now     time.Duration
	joiners []*xJoiner
	rank    map[int]int // slot -> joiner holding the slot's server rank
	events  []MemberEvent
	cut     []int // joiners cut during the current step
	refused []string
}

func newXWorld(slots int) *xWorld {
	w := &xWorld{m: NewMembership(slots, 1, time.Second, 0), rank: map[int]int{}}
	w.m.SetNotify(func(ev MemberEvent) { w.events = append(w.events, ev) })
	return w
}

// cutFor is joiner id's reservation cut: its control connection closes
// and the hub drops its slot's rank. It runs under the membership lock,
// so it only records.
func (w *xWorld) cutFor(id int) func(int) {
	return func(slot int) {
		w.cut = append(w.cut, id)
		w.joiners[id].open = false
		if h, ok := w.rank[slot]; ok && h == id {
			delete(w.rank, slot)
		}
	}
}

// inputs lists every input the world can take next.
func (w *xWorld) inputs() []xInput {
	in := []xInput{{"reserve", 0}, {"expire", 0}}
	for id, j := range w.joiners {
		if j.open {
			in = append(in, xInput{"admit", id}, xInput{"heartbeat", id}, xInput{"release", id}, xInput{"register", id})
		}
	}
	for s := 0; s < w.m.Capacity(); s++ {
		in = append(in, xInput{"start-drain", s}, xInput{"finish-drain", s})
	}
	return in
}

// apply runs one input. Errors the Membership returns are part of the
// exploration (a heartbeat on a lost claim, a drain of the master), not
// failures; the invariants judge the outcome.
func (w *xWorld) apply(in xInput) {
	w.events, w.cut = nil, nil
	switch in.op {
	case "reserve":
		id := len(w.joiners)
		if c, err := w.m.Reserve(fmt.Sprintf("j%d", id), w.now, w.cutFor(id)); err == nil {
			w.joiners = append(w.joiners, &xJoiner{claim: c, open: true})
		}
	case "expire": // the clock moves to the earliest lease still running
		next := time.Duration(-1)
		for _, mb := range w.m.members {
			if mb.leaseExpiry > w.now && (next < 0 || mb.leaseExpiry < next) {
				next = mb.leaseExpiry
			}
		}
		if next > 0 {
			w.now = next
		}
		w.m.ExpireLeases(w.now)
	case "admit":
		w.m.Admit(w.joiners[in.arg].claim, w.now) //nolint:errcheck
	case "heartbeat":
		w.m.Heartbeat(w.joiners[in.arg].claim, w.now) //nolint:errcheck
	case "release": // the control connection ends
		w.joiners[in.arg].open = false
		w.m.Release(w.joiners[in.arg].claim)
	case "register": // the joiner dials the hub for its slot's rank
		slot := w.joiners[in.arg].claim.Slot
		if h, ok := w.rank[slot]; ok && h != in.arg {
			w.refused = append(w.refused, fmt.Sprintf("joiner %d refused rank of slot %d held by joiner %d", in.arg, slot, h))
		} else {
			w.rank[slot] = in.arg
		}
	case "start-drain":
		w.m.StartDrain(in.arg) //nolint:errcheck
	case "finish-drain":
		if w.m.FinishDrain(in.arg) == nil {
			// FinishServerDrain's shutdown frame: the node exits and
			// its connections end.
			for id, j := range w.joiners {
				if j.open && j.claim.Slot == in.arg {
					j.open, j.drained = false, true
					if w.rank[in.arg] == id {
						delete(w.rank, in.arg)
					}
					w.m.Release(j.claim)
				}
			}
		}
	}
	// A cut connection ends: the daemon releases its claim, which the
	// departure already took.
	for _, id := range w.cut {
		w.m.Release(w.joiners[id].claim)
	}
}

// key is the world's state with absolute epochs and times left out:
// per slot its state, lease left and claim holder, per joiner that
// still holds anything its connection and rank. Joiners are renumbered
// in creation order, so two paths to the same situation meet.
func (w *xWorld) key() string {
	var b strings.Builder
	num := map[int]int{}
	for id, j := range w.joiners {
		if h, ranked := w.rank[j.claim.Slot]; j.open || (ranked && h == id) {
			num[id] = len(num)
			fmt.Fprintf(&b, "j%d:%v ", num[id], j.open)
		}
	}
	for s, mb := range w.m.members {
		holder := -1
		for id, j := range w.joiners {
			if n, ok := num[id]; ok && mb.claim != 0 && j.claim.Epoch == mb.claim {
				holder = n
			}
		}
		lease := time.Duration(-1)
		if mb.leaseExpiry > 0 {
			lease = mb.leaseExpiry - w.now
		}
		r := -1
		if h, ok := w.rank[s]; ok {
			r = num[h]
		}
		fmt.Fprintf(&b, "|%d %s %v claim=%d rank=%d", s, mb.state, lease, holder, r)
	}
	return b.String()
}

// check returns the invariants the step from before broke.
func (w *xWorld) check(before []member, epoch uint32) []string {
	var bad []string
	after := w.m.members
	if e := w.m.Epoch(); e < epoch {
		bad = append(bad, fmt.Sprintf("epoch fell %d → %d", epoch, e))
	}
	bad = append(bad, w.refused...)
	for s, id := range w.rank {
		if j := w.joiners[id]; !j.drained && after[s].claim != j.claim.Epoch {
			bad = append(bad, fmt.Sprintf("slot %d (%s) still has the rank of joiner %d, whose claim is gone", s, after[s].state, id))
		}
	}
	for s, mb := range after {
		holders := 0
		for _, j := range w.joiners {
			if mb.claim != 0 && j.claim.Epoch == mb.claim {
				holders++
				if j.claim.Slot != s {
					bad = append(bad, fmt.Sprintf("slot %d is held by the claim of slot %d", s, j.claim.Slot))
				}
			}
		}
		if holders > 1 {
			bad = append(bad, fmt.Sprintf("slot %d held by %d claims", s, holders))
		}
		lost := 0
		for _, ev := range w.events {
			if ev.Kind == "server_lost" && ev.Slot == s {
				lost++
			}
		}
		want := 0
		if (before[s].state == MemberActive || before[s].state == MemberDraining) && mb.state == MemberLost {
			want = 1
		}
		if lost != want {
			bad = append(bad, fmt.Sprintf("slot %d %s → %s emitted %d server_lost, want %d", s, before[s].state, mb.state, lost, want))
		}
	}
	var write, read []int
	for s, mb := range after {
		if mb.state != MemberActive {
			write = append(write, s)
		}
		if mb.state != MemberActive && mb.state != MemberDraining {
			read = append(read, s)
		}
		if gone := mb.state == MemberAbsent || mb.state == MemberJoining || mb.state == MemberLost; w.m.Gone(s) != gone {
			bad = append(bad, fmt.Sprintf("Gone(%d) = %v in state %s", s, !gone, mb.state))
		}
	}
	if got := w.m.DownForWrite(); !reflect.DeepEqual(got, write) {
		bad = append(bad, fmt.Sprintf("DownForWrite = %v, states say %v", got, write))
	}
	if got := w.m.DownForRead(); !reflect.DeepEqual(got, read) {
		bad = append(bad, fmt.Sprintf("DownForRead = %v, states say %v", got, read))
	}
	return bad
}

// replay builds the world a path of inputs leads to.
func replay(slots int, path []xInput) *xWorld {
	w := newXWorld(slots)
	for _, in := range path {
		w.apply(in)
	}
	return w
}

// explore searches every input sequence up to depth from a fresh pool
// of the given size, returning the states seen and the first broken
// invariant with the path that broke it.
func explore(slots, depth int) (states int, failure string) {
	seen := map[string]bool{newXWorld(slots).key(): true}
	frontier := [][]xInput{nil}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next [][]xInput
		for _, path := range frontier {
			for _, in := range replay(slots, path).inputs() {
				w := replay(slots, path)
				before := append([]member(nil), w.m.members...)
				epoch := w.m.Epoch()
				w.apply(in)
				child := append(append([]xInput(nil), path...), in)
				if bad := w.check(before, epoch); len(bad) > 0 {
					return len(seen), fmt.Sprintf("after %v: %s", child, strings.Join(bad, "; "))
				}
				if k := w.key(); !seen[k] {
					seen[k] = true
					next = append(next, child)
				}
			}
		}
		frontier = next
	}
	return len(seen), ""
}

// TestMembershipExplored: over pools of two and three slots, no
// sequence of up to eight reservations, admissions, heartbeats, drains,
// connection ends, lease expiries and hub registrations breaks the
// pool's invariants — in particular, no departed claim (lost or
// reclaimed) keeps its slot's hub rank, so the slot's next joiner is
// never refused.
func TestMembershipExplored(t *testing.T) {
	const depth = 8
	for _, slots := range []int{2, 3} {
		t0 := time.Now()
		states, failure := explore(slots, depth)
		if failure != "" {
			t.Fatalf("%d slots: %s", slots, failure)
		}
		t.Logf("%d slots, depth %d: %d states in %v", slots, depth, states, time.Since(t0))
	}
}
