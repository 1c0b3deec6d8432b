package mpi

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"
)

// The rank-table explorer drives step through every sequence of hub
// events up to a depth, breadth first, skipping states it has already
// seen, and checks the table's invariants after every step. An endpoint
// is modelled by its identity alone: a fake connection for a hello, a
// bare local endpoint for an attach. The clock is fake: a tick moves it
// to the earliest armed predecessorWait and fires that expiry, as the
// hub's timer would.

// xInput is one explorer input: an event kind and its rank or endpoint.
type xInput struct {
	op  string
	arg int
}

func (in xInput) String() string { return fmt.Sprintf("%s %d", in.op, in.arg) }

// xConn stands for a dialed connection; only its identity is used.
type xConn struct {
	net.Conn
	id int
}

type xState int

const (
	xWaiting xState = iota // its registration waits for the predecessor's release
	xRefused
	xHeld     // acked or attached
	xEnded    // its route ended, or it detached
	xReleased // its death was announced and its rank released
)

// xEnd is one modelled endpoint and what the actions have told it.
type xEnd struct {
	who     holder
	rank    int
	state   xState
	deaths  int           // death announcements naming it
	severed bool          // cut (Sever, a failed write, Close) while frames went to it
	timer   time.Duration // its armed predecessorWait expiry; 0 when none
}

// xHub is a rank table under a fake clock, the endpoints that asked it
// for ranks, and the announcements each rank's peers have heard.
type xHub struct {
	t     table
	now   time.Duration
	ends  []xEnd
	heard []string // per rank: the last announcement its peers heard, "death" or "revival"; "" for none
}

func newXHub(ranks int) *xHub {
	return &xHub{t: table{slots: make([]slot, ranks)}, heard: make([]string, ranks)}
}

func (x *xHub) clone() *xHub {
	c := *x
	c.ends = append([]xEnd(nil), x.ends...)
	c.heard = append([]string(nil), x.heard...)
	return &c
}

// endOf is the endpoint holding identity h.
func (x *xHub) endOf(h holder) int {
	for i := range x.ends {
		if x.ends[i].who == h {
			return i
		}
	}
	return -1
}

// inputs lists every input the hub can take next.
func (x *xHub) inputs() []xInput {
	var in []xInput
	for r := range x.t.slots {
		in = append(in, xInput{"hello", r}, xInput{"attach", r}, xInput{"sever", r})
	}
	for i, e := range x.ends {
		switch e.state {
		case xHeld:
			in = append(in, xInput{"end", i})
		case xEnded:
			in = append(in, xInput{"release", i})
		}
		if e.who.conn != nil && (e.state == xHeld || e.state == xEnded) {
			in = append(in, xInput{"write-failed", i})
		}
	}
	if x.nextTimer() >= 0 {
		in = append(in, xInput{"tick", 0})
	}
	if !x.t.closed {
		in = append(in, xInput{"close", 0})
	}
	return in
}

// nextTimer is the endpoint whose expiry fires first, or -1.
func (x *xHub) nextTimer() int {
	next := -1
	for i, e := range x.ends {
		if e.timer > 0 && (next < 0 || e.timer < x.ends[next].timer) {
			next = i
		}
	}
	return next
}

// apply runs one input through step and records what its actions tell
// the endpoints; it returns the invariants the step broke.
func (x *xHub) apply(in xInput) []string {
	dests := make([]holder, len(x.t.slots))
	for r := range dests {
		dests[r] = x.t.dest(r)
	}
	var ev event
	switch in.op {
	case "hello", "attach":
		id := len(x.ends)
		who := holder{conn: &xConn{id: id}}
		if in.op == "attach" {
			who = holder{local: &localComm{}}
		}
		x.ends = append(x.ends, xEnd{who: who, rank: in.arg, state: xWaiting})
		ev = event{kind: evRegister, rank: in.arg, who: who}
	case "end":
		x.ends[in.arg].state = xEnded
		ev = event{kind: evEnd, rank: x.ends[in.arg].rank, who: x.ends[in.arg].who}
	case "release":
		x.ends[in.arg].state = xReleased
		ev = event{kind: evRelease, rank: x.ends[in.arg].rank, who: x.ends[in.arg].who}
	case "sever":
		ev = event{kind: evSever, rank: in.arg}
		if dests[in.arg].conn != nil { // a local holder detaches itself
			x.cut(dests[in.arg])
		}
	case "write-failed":
		e := x.ends[in.arg]
		ev = event{kind: evWriteFailed, rank: e.rank, who: e.who}
		if dests[e.rank] == e.who {
			x.cut(e.who)
		}
	case "tick":
		i := x.nextTimer()
		x.now, x.ends[i].timer = x.ends[i].timer, 0
		ev = event{kind: evExpire, rank: x.ends[i].rank, who: x.ends[i].who}
	case "close":
		ev = event{kind: evClose}
		for _, d := range dests {
			x.cut(d)
		}
	}
	next, acts := step(x.t, ev)
	x.t = next
	var bad []string
	for _, a := range acts {
		i := x.endOf(a.ev.who)
		e := &x.ends[i]
		switch a.kind {
		case actAck:
			e.state = xHeld
		case actRefuse:
			e.state = xRefused
		case actWait:
			e.timer = x.now + predecessorWait
		case actDeath, actRevival:
			if a.kind == actDeath {
				e.deaths++
				if e.state != xEnded {
					bad = append(bad, fmt.Sprintf("endpoint %d announced dead before it ended", i))
				}
			}
			if heard := x.heard[a.ev.rank]; heard == a.kind.String() || heard == "" && a.kind == actRevival {
				bad = append(bad, fmt.Sprintf("rank %d: a %v follows %q", a.ev.rank, a.kind, heard))
			}
			x.heard[a.ev.rank] = a.kind.String()
		}
	}
	return append(bad, x.check()...)
}

// cut records that the hub cut d, the destination of a rank's frames.
func (x *xHub) cut(d holder) {
	if i := x.endOf(d); i >= 0 {
		x.ends[i].severed = true
	}
}

// check is the list of invariants the hub breaks now.
func (x *xHub) check() []string {
	var bad []string
	for r := range x.t.slots {
		live := 0
		holding := false
		for _, e := range x.ends {
			if e.rank != r {
				continue
			}
			if (e.state == xHeld || e.state == xEnded) && e.deaths == 0 {
				live++
			}
			holding = holding || e.state == xHeld || e.state == xEnded
		}
		if live > 1 {
			bad = append(bad, fmt.Sprintf("rank %d has %d live holders", r, live))
		}
		for i, e := range x.ends {
			if e.rank == r && e.state == xWaiting && !holding {
				bad = append(bad, fmt.Sprintf("endpoint %d still waits for rank %d, which is free", i, r))
			}
		}
		if i := x.endOf(x.t.dest(r)); i >= 0 && (x.ends[i].severed || x.ends[i].deaths > 0) {
			bad = append(bad, fmt.Sprintf("frames for rank %d still reach endpoint %d after its cut or death", r, i))
		}
	}
	for i, e := range x.ends {
		if e.deaths > 1 || e.deaths == 0 && e.state >= xEnded {
			bad = append(bad, fmt.Sprintf("endpoint %d ended and was announced dead %d times", i, e.deaths))
		}
	}
	return bad
}

// key names the hub's state up to the clock's origin, the numbering of
// its endpoints and the numbering of its ranks, which step treats alike:
// each rank is its slot and the endpoints that asked for it, by their
// role in the slot and what they are, and the ranks are sorted. An
// endpoint refused or released, with no timer left to fire, can do
// nothing more and is left out.
func (x *xHub) key() string {
	ranks := make([]string, len(x.t.slots))
	for r, s := range x.t.slots {
		var own []string
		for _, e := range x.ends {
			if e.rank != r || (e.state == xRefused || e.state == xReleased) && e.timer == 0 {
				continue
			}
			role := "-"
			switch e.who {
			case s.holder:
				role = "h"
			case s.next.who:
				role = "n"
			}
			timer := time.Duration(0)
			if e.timer > 0 {
				timer = e.timer - x.now
			}
			own = append(own, fmt.Sprint(role, e.who.conn != nil, e.state, e.deaths, e.severed, timer))
		}
		sort.Strings(own)
		ranks[r] = fmt.Sprint(s.dead, s.severed, x.heard[r], own)
	}
	sort.Strings(ranks)
	return fmt.Sprint(x.t.closed, ranks)
}

// exploreRanks searches every input sequence up to depth from an empty
// table of the given size, returning the states seen and the first
// broken invariant with the path that broke it.
func exploreRanks(ranks, depth int) (states int, failure string) {
	start := newXHub(ranks)
	seen := map[string]bool{start.key(): true}
	type node struct {
		x    *xHub
		path []xInput
	}
	frontier := []node{{start, nil}}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []node
		for _, n := range frontier {
			for _, in := range n.x.inputs() {
				x := n.x.clone()
				bad := x.apply(in)
				path := append(append([]xInput(nil), n.path...), in)
				if len(bad) > 0 {
					return len(seen), fmt.Sprintf("depth %d, after %v: %s", len(path), path, strings.Join(bad, "; "))
				}
				if k := x.key(); !seen[k] {
					seen[k] = true
					next = append(next, node{x, path})
				}
			}
		}
		frontier = next
	}
	return len(seen), ""
}

// TestHubRanksExplored: over worlds of two and three ranks, no sequence
// of up to eight hellos, local attaches, route ends and detaches,
// releases, Severs, failed writes, expiries and Closes breaks the rank
// table's invariants. A rank has at most one live holder; a holder that
// ended is announced dead exactly once; a rank's peers hear a revival
// only after a death; no frame reaches a holder after its cut; and a
// registration waiting on a predecessor is acked in the step that
// releases it, never left waiting on a free rank for its timer.
func TestHubRanksExplored(t *testing.T) {
	const depth = 8
	for _, ranks := range []int{2, 3} {
		t0 := time.Now()
		states, failure := exploreRanks(ranks, depth)
		if failure != "" {
			t.Fatalf("%d ranks: %s", ranks, failure)
		}
		t.Logf("%d ranks, depth %d: %d states in %v", ranks, depth, states, time.Since(t0))
	}
}

func (k actionKind) String() string {
	return [...]string{"ack", "refuse", "wait", "death", "revival", "close"}[k]
}
