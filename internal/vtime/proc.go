package vtime

import "time"

// Proc is a simulated process: a goroutine that runs under the Sim's
// virtual clock. All Proc methods must be called from the process's own
// goroutine while it holds control (i.e. from inside the function passed
// to Spawn, directly or transitively).
type Proc struct {
	sim      *Sim
	name     string
	wake     chan struct{}
	finished bool
}

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Park blocks the calling process until another party calls Sim.Wake or
// Sim.WakeAt on it. A process parks for exactly one wake; pairing is the
// caller's responsibility (internal/queue, the one waiter built on it,
// manages this for you).
func (p *Proc) Park() {
	s := p.sim
	if s.running != p {
		panic("vtime: Park called by process not holding control: " + p.name)
	}
	s.parked[p] = true
	s.running = nil
	s.sched <- struct{}{}
	<-p.wake
}

// Sleep advances the process's view of time by d, yielding to other
// events in the meantime. d must be non-negative; a zero sleep still
// yields, letting same-instant events fire in schedule order.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("vtime: negative sleep")
	}
	p.sim.WakeAt(p.sim.now+d, p)
	p.Park()
}

// SleepUntil blocks until virtual time t. If t is in the past it panics,
// except that t == Now is a plain yield.
func (p *Proc) SleepUntil(t time.Duration) {
	p.sim.WakeAt(t, p)
	p.Park()
}

// Yield lets all other events scheduled for the current instant run
// before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
