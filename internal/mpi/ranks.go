package mpi

import "net"

// The hub's rank table: who holds each rank of the world, and the one
// function, step, that changes it. step is pure: it reads a table and
// an event and returns the next table and what the hub must do, so its
// rules are tested by exploring every event sequence
// (ranks_explore_test.go) without a socket or a clock. Hub.apply
// carries the actions out; a frame's route only reads the table (dest).

// holder is who holds a rank: a dialed connection or an in-process
// endpoint (Hub.Local). The zero holder is nobody.
type holder struct {
	conn  net.Conn
	local *localComm
}

// slot is one rank's row of the table. dead: holder was announced
// dead, or, on a free slot, the last one was, so the next holder owes a
// revival. severed: the hub cut holder, and no frame may reach it.
type slot struct {
	holder
	dead, severed bool
	next          event // the registration waiting for holder's release
}

// table is the hub's rank table, one slot per rank.
type table struct {
	slots  []slot
	closed bool // Close was called: every registration is refused
}

type eventKind int

const (
	evRegister    eventKind = iota // a hello, or a local attach: who asks for rank
	evEnd                          // who's route ended, or who detached
	evRelease                      // who's death has been announced: rank is free
	evSever                        // Sever: cut the dialed holder of rank
	evWriteFailed                  // a frame write to who failed
	evExpire                       // who has waited predecessorWait for rank
	evClose                        // Close
)

type event struct {
	kind  eventKind
	rank  int
	who   holder
	reply chan bool // evRegister: answered true (acked) or false (refused)
}

type actionKind int

const (
	actAck     actionKind = iota // who holds rank now: ack its hello, answer true
	actRefuse                    // who may not hold rank: answer false
	actWait                      // who waits for the release of rank's holder, for predecessorWait at most
	actDeath                     // tell every peer rank is dead (who was its holder), then release it
	actRevival                   // tell every peer rank is back
	actClose                     // close who's connection, or fail a local who's receives
)

// An action is what a step asks of the hub about ev's rank and holder;
// an answer (actAck, actRefuse) goes to ev, the registration.
type action struct {
	kind actionKind
	ev   event
}

// step is the table ev leaves behind t, and the actions it calls for.
// A rank has one holder. A registration finding the hub closed, a live
// local holder or a registration already waiting is refused. One
// finding a dialed or a dying holder waits, and is acked in the step
// that releases that holder. A holder that ends is closed and announced
// dead once; the announcement's end releases the rank, and the next
// holder is announced revived. A cut (Sever, a failed write, Close)
// closes the holder at once and stops frames to it; its end announces
// the death.
func step(t table, ev event) (table, []action) {
	t.slots = append([]slot(nil), t.slots...)
	var acts []action
	if ev.kind == evClose {
		t.closed = true
		for r := range t.slots {
			s := &t.slots[r]
			if s.next.who != (holder{}) {
				acts = append(acts, action{actRefuse, s.next})
				s.next = event{}
			}
			if s.holder != (holder{}) && !s.severed && !s.dead {
				s.severed = true
				acts = append(acts, action{actClose, event{rank: r, who: s.holder}})
			}
		}
		return t, acts
	}
	s := &t.slots[ev.rank]
	switch ev.kind {
	case evRegister:
		switch {
		case t.closed, s.local != nil && !s.dead, s.next.who != (holder{}):
			acts = append(acts, action{actRefuse, ev})
		case s.holder != (holder{}):
			s.next = ev
			acts = append(acts, action{actWait, ev})
		default:
			acts = s.admit(ev, acts)
		}
	case evEnd:
		if s.holder == ev.who && !s.dead {
			if !s.severed {
				acts = append(acts, action{actClose, ev})
			}
			s.dead = true
			acts = append(acts, action{actDeath, ev})
		}
	case evRelease:
		if s.holder == ev.who && s.dead {
			s.holder, s.severed = holder{}, false
			if next := s.next; next.who != (holder{}) {
				s.next = event{}
				acts = s.admit(next, acts)
			}
		}
	case evSever, evWriteFailed:
		if s.conn != nil && !s.severed && !s.dead && (ev.kind == evSever || s.holder == ev.who) {
			s.severed = true
			acts = append(acts, action{actClose, event{rank: ev.rank, who: s.holder}})
		}
	case evExpire:
		if s.next.who == ev.who {
			acts = append(acts, action{actRefuse, s.next})
			s.next = event{}
		}
	}
	return t, acts
}

// admit makes the registrant of reg the holder of the free slot s. A
// rank announced dead is announced back before the registrant hears its
// answer, so a local registrant returns to peers that know it is back.
func (s *slot) admit(reg event, acts []action) []action {
	s.holder = reg.who
	if s.dead {
		s.dead = false
		acts = append(acts, action{actRevival, reg})
	}
	return append(acts, action{actAck, reg})
}

// dest is where a frame for rank goes: its holder, unless that one is
// dead or cut.
func (t *table) dest(rank int) holder {
	if s := &t.slots[rank]; !s.dead && !s.severed {
		return s.holder
	}
	return holder{}
}
