// Package clock abstracts the flow of time so that the same node code
// can run against the wall clock (functional tests, examples) or against
// a vtime simulation (performance experiments).
package clock

import (
	"time"

	"panda/internal/vtime"
)

// Clock measures elapsed time since an arbitrary origin, lets the
// caller wait, and hosts concurrent activities sharing its notion of
// time: real clocks spawn goroutines, virtual clocks spawn simulated
// processes. That is what lets one node run internal stages (a storage
// stage overlapping a network stage, one executor per in-flight
// operation) identically under the wall clock and under a deterministic
// simulation.
type Clock interface {
	// Now reports the time elapsed since the clock's origin.
	Now() time.Duration
	// Sleep pauses the caller for d.
	Sleep(d time.Duration)
	// Go starts fn concurrently in this clock's time domain. fn receives
	// its own Clock, which it must use instead of the parent's (a virtual
	// clock is bound to the process that owns it).
	Go(name string, fn func(clk Clock))
}

// Real is a wall-clock Clock anchored at its creation.
type Real struct {
	origin time.Time
}

// NewReal returns a wall clock whose origin is the moment of the call.
func NewReal() *Real { return &Real{origin: time.Now()} }

// Now reports wall time elapsed since creation.
func (c *Real) Now() time.Duration { return time.Since(c.origin) }

// Sleep pauses the goroutine for d of wall time.
func (c *Real) Sleep(d time.Duration) { time.Sleep(d) }

// Go runs fn on a plain goroutine sharing the wall clock.
func (c *Real) Go(name string, fn func(clk Clock)) { go fn(c) }

// Virtual adapts a simulated process to the Clock interface. Each node
// process in a simulation gets its own Virtual wrapping its Proc.
type Virtual struct {
	proc *vtime.Proc
}

// NewVirtual returns a Clock driven by p's simulation.
func NewVirtual(p *vtime.Proc) *Virtual { return &Virtual{proc: p} }

// Now reports the current virtual time.
func (c *Virtual) Now() time.Duration { return c.proc.Now() }

// Sleep advances virtual time by d, yielding to other processes.
func (c *Virtual) Sleep(d time.Duration) { c.proc.Sleep(d) }

// Go runs fn as a simulated process of the same Sim, with its own
// Virtual clock.
func (c *Virtual) Go(name string, fn func(clk Clock)) {
	c.proc.Sim().Spawn(name, func(p *vtime.Proc) { fn(NewVirtual(p)) })
}

// Proc exposes the underlying simulated process, for components that
// need richer vtime primitives.
func (c *Virtual) Proc() *vtime.Proc { return c.proc }
