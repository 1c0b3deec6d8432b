// Package vtime implements a deterministic discrete-event simulation
// kernel with cooperatively scheduled processes.
//
// A Sim owns a virtual clock and an event queue. Processes (Proc) are
// ordinary goroutines, but exactly one of them — or the scheduler — runs
// at any instant; control is handed back and forth explicitly, so a
// simulation behaves like a single-threaded program and is fully
// deterministic: two runs of the same program observe identical event
// orders and identical virtual timestamps.
//
// The kernel exposes three layers:
//
//   - low-level parking: Proc.Park blocks the calling process until some
//     other party calls Sim.Wake / Sim.WakeAt on it;
//   - timed callbacks: Sim.At and Sim.After run a function in scheduler
//     context at a virtual instant (the function must not block);
//   - conveniences built on those: Proc.Sleep and Port (next-free-time
//     bandwidth bookkeeping for links and disks).
//
// Time is represented as time.Duration since the start of the simulation.
package vtime

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// event is a scheduled callback. Events with equal timestamps fire in
// schedule order (seq), which is what makes the simulation deterministic.
type event struct {
	at   time.Duration
	seq  uint64
	fire func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulation. The zero value is not usable; call
// New. A Sim must be driven by a single call to Run from one goroutine.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap

	// sched receives control whenever the currently running process
	// parks or terminates.
	sched chan struct{}

	live    int            // processes spawned and not yet finished
	parked  map[*Proc]bool // processes currently blocked in Park
	running *Proc          // process currently holding control, if any

	fired   uint64 // statistics: events fired
	started bool
	stopped bool
}

// New returns an empty simulation at virtual time zero.
func New() *Sim {
	return &Sim{
		sched:  make(chan struct{}),
		parked: make(map[*Proc]bool),
	}
}

// Now reports the current virtual time. It may be called from scheduler
// callbacks or from running processes.
func (s *Sim) Now() time.Duration { return s.now }

// Events reports how many events have fired so far.
func (s *Sim) Events() uint64 { return s.fired }

// schedule enqueues fn to run at virtual time at (which must not precede
// the current time).
func (s *Sim) schedule(at time.Duration, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("vtime: scheduling event in the past: %v < %v", at, s.now))
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fire: fn})
}

// At schedules fn to run in scheduler context at virtual time at.
// fn must not block; to perform blocking work, spawn a process.
func (s *Sim) At(at time.Duration, fn func()) {
	s.schedule(at, fn)
}

// After schedules fn to run in scheduler context d from now.
func (s *Sim) After(d time.Duration, fn func()) {
	s.schedule(s.now+d, fn)
}

// Spawn creates a new process executing fn and schedules it to start at
// the current virtual time. It may be called before Run or from within a
// running process or callback. The name is used in diagnostics only.
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{sim: s, name: name, wake: make(chan struct{}, 1)}
	s.live++
	s.schedule(s.now, func() { s.start(p, fn) })
	return p
}

// start launches the goroutine backing p and transfers control to it.
// Runs in scheduler context.
func (s *Sim) start(p *Proc, fn func(*Proc)) {
	go func() {
		<-p.wake
		fn(p)
		p.finished = true
		s.live--
		s.running = nil
		s.sched <- struct{}{}
	}()
	s.handoff(p)
}

// handoff transfers control to p and blocks until p parks or finishes.
// Runs in scheduler context (or transitively from an event callback).
func (s *Sim) handoff(p *Proc) {
	if p.finished {
		panic("vtime: waking finished process " + p.name)
	}
	s.running = p
	p.wake <- struct{}{}
	<-s.sched
}

// Wake schedules parked process p to resume at the current virtual time.
// Waking a process that is not parked (and is not about to park at the
// same instant) is a programming error and panics when the event fires.
func (s *Sim) Wake(p *Proc) { s.WakeAt(s.now, p) }

// WakeAt schedules parked process p to resume at virtual time at.
func (s *Sim) WakeAt(at time.Duration, p *Proc) {
	s.schedule(at, func() {
		if !s.parked[p] {
			panic("vtime: wake of non-parked process " + p.name)
		}
		delete(s.parked, p)
		s.handoff(p)
	})
}

// DeadlockError reports that Run exhausted all events while processes
// were still blocked.
type DeadlockError struct {
	// Parked lists the names of the blocked processes.
	Parked []string
	// Now is the virtual time at which the simulation stalled.
	Now time.Duration
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at %v: %d process(es) parked: %v", e.Now, len(e.Parked), e.Parked)
}

// Run executes the simulation until the event queue is empty. It returns
// nil if every spawned process has finished, and a *DeadlockError if
// processes remain blocked with no pending events. Run must be called
// exactly once.
func (s *Sim) Run() error {
	if s.started {
		panic("vtime: Run called twice")
	}
	s.started = true
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		s.fired++
		e.fire()
	}
	s.stopped = true
	if s.live > 0 {
		var names []string
		for p := range s.parked {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return &DeadlockError{Parked: names, Now: s.now}
	}
	return nil
}
