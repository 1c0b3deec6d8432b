package vtime

import "time"

// Port models a serial resource with next-free-time bookkeeping: a
// network link direction, a disk arm, any device that serves one
// transfer at a time. Reservations are made arithmetically at request
// time, so a Port needs no process context and composes with events.
//
// A reservation asked for at time `from` with service duration `dur`
// begins at max(from, free time) and ends dur later; the port is then
// busy until that end. Reservations made in program order are served in
// program order, which matches FIFO queueing at a device.
type Port struct {
	free time.Duration
	busy time.Duration // cumulative busy time, for utilization reports
}

// Reserve books the port for dur starting no earlier than from and
// returns the completion time.
func (po *Port) Reserve(from, dur time.Duration) (done time.Duration) {
	if dur < 0 {
		panic("vtime: negative reservation")
	}
	start := from
	if po.free > start {
		start = po.free
	}
	po.free = start + dur
	po.busy += dur
	return po.free
}

// Busy reports the cumulative time the port has been reserved for.
func (po *Port) Busy() time.Duration { return po.busy }
