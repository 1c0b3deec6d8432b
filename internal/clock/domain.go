package clock

import (
	"panda/internal/vtime"
)

// Domain is a Clock that can also host concurrent activities sharing its
// notion of time: real clocks spawn goroutines, virtual clocks spawn
// simulated processes. It is what lets one node run internal pipeline
// stages (e.g. a storage stage overlapping a network stage) identically
// under the wall clock and under a deterministic simulation.
type Domain interface {
	Clock
	// Go starts fn concurrently in this time domain. fn receives its own
	// Clock, which it must use instead of the parent's (a virtual clock
	// is bound to the process that owns it).
	Go(name string, fn func(clk Clock))
}

// Go implements Domain: real-time activities are plain goroutines
// sharing the wall clock.
func (c *Real) Go(name string, fn func(clk Clock)) {
	go fn(c)
}

// Go implements Domain: virtual-time activities are simulated processes
// of the same Sim, each with its own Virtual clock.
func (c *Virtual) Go(name string, fn func(clk Clock)) {
	c.proc.Sim().Spawn(name, func(p *vtime.Proc) {
		fn(NewVirtual(p))
	})
}
