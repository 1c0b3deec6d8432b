// Package queue holds the one wait primitive of the tree: a clock-aware
// multi-producer, single-consumer queue with matched, bounded receive.
// Every Comm's receive half (mpi.Endpoint) is one of these holding
// messages, and every queue between the concurrent activities of a node
// is one too: a scheduler router's per-operation mailboxes, the storage
// stage's request queue, each sink's and source's replies, an OpHandle's
// result.
package queue

import (
	"errors"
	"sync"
	"time"

	"panda/internal/clock"
	"panda/internal/vtime"
)

// ErrTimeout is returned by Pop when a bounded wait expires.
var ErrTimeout = errors.New("queue: wait timed out")

// Q is the queue. Under a real clock it is a mutex+cond queue whose
// bounded waits share one reusable timer; under a virtual clock it parks
// the consuming process on the simulation — which runs one process at a
// time, so that arm needs no lock — and vtime runs stay deterministic.
// Any number of producers may Put; at most one consumer may be blocked
// in Pop at a time, and a second one panics.
type Q[T any] struct {
	items []T

	// Real arm (sim == nil).
	mu      sync.Mutex
	cond    sync.Cond
	origin  time.Time   // deadlines are monotonic offsets from it
	timer   *time.Timer // calls Wake; made by the first bounded wait, re-armed by every later one
	waiting bool        // the consumer is blocked

	// Virtual arm.
	sim    *vtime.Sim
	waiter *vtime.Proc // the parked consumer, cleared by whoever wakes it
	// waitGen invalidates pending timeout events: each park bumps it, so
	// a timeout scheduled for an earlier wait never wakes a later one.
	waitGen uint64
}

// New returns a queue in clk's time domain.
func New[T any](clk clock.Clock) *Q[T] {
	if v, ok := clk.(*clock.Virtual); ok {
		return NewSim[T](v.Proc().Sim())
	}
	q := &Q[T]{origin: time.Now()}
	q.cond.L = &q.mu
	return q
}

// NewSim returns a queue whose consumers are processes of sim.
func NewSim[T any](sim *vtime.Sim) *Q[T] { return &Q[T]{sim: sim} }

// Put appends v and wakes the consumer.
func (q *Q[T]) Put(v T) {
	if q.sim != nil {
		q.items = append(q.items, v)
		q.Wake()
		return
	}
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Wake makes a blocked consumer run its scan, its check and its
// deadline test again: what a transport calls after recording that a
// link went down or a peer was declared dead. The real arm takes the
// lock before it broadcasts, so the wake-up cannot fall between a
// consumer's last test and its Wait.
func (q *Q[T]) Wake() {
	if q.sim != nil {
		if p := q.waiter; p != nil {
			q.waiter = nil
			q.sim.Wake(p)
		}
		return
	}
	q.mu.Lock()
	q.mu.Unlock() //nolint:staticcheck // empty section synchronizes with the consumer
	q.cond.Broadcast()
}

// Pop removes and returns the first element match accepts (nil accepts
// everything), in arrival order. With nothing to return it consults
// check (when non-nil), whose error ends the wait — so elements already
// queued stay receivable after a failure — and then waits: forever when
// timeout <= 0, otherwise until timeout has passed on the consumer's
// clock, failing with ErrTimeout. Every wake-up repeats all three tests.
// Neither callback is retained. clk must be the caller's own clock; the
// real arm does not read it.
func (q *Q[T]) Pop(clk clock.Clock, match func(T) bool, check func() error, timeout time.Duration) (T, error) {
	var zero T
	p := q.consumer(clk)
	if p == nil {
		q.mu.Lock()
		defer q.mu.Unlock()
	}
	var deadline time.Duration
	if timeout > 0 {
		deadline = q.now(p) + timeout
		if p == nil {
			if q.timer == nil {
				q.timer = time.AfterFunc(timeout, q.Wake)
			} else {
				q.timer.Reset(timeout)
			}
			defer q.timer.Stop()
		}
	}
	for {
		for i, v := range q.items {
			if match == nil || match(v) {
				last := len(q.items) - 1
				copy(q.items[i:], q.items[i+1:])
				q.items[last] = zero // the array outlives the element
				q.items = q.items[:last]
				return v, nil
			}
		}
		if check != nil {
			if err := check(); err != nil {
				return zero, err
			}
		}
		if timeout > 0 && q.now(p) >= deadline {
			return zero, ErrTimeout
		}
		if q.waiting || q.waiter != nil {
			panic("queue: a second consumer blocked on a single-consumer queue")
		}
		if p == nil {
			q.waiting = true
			q.cond.Wait()
			q.waiting = false
			continue
		}
		q.waiter = p
		q.waitGen++
		if timeout > 0 {
			gen := q.waitGen
			q.sim.At(deadline, func() {
				// Fire only if this exact wait is still parked: a wake-up
				// clears waiter, and a later wait bumps waitGen.
				if q.waiter == p && q.waitGen == gen {
					q.Wake()
				}
			})
		}
		p.Park()
	}
}

// consumer is the process Pop parks: clk's on the virtual arm, none on
// the real one.
func (q *Q[T]) consumer(clk clock.Clock) *vtime.Proc {
	if q.sim == nil {
		return nil
	}
	v, ok := clk.(*clock.Virtual)
	if !ok {
		panic("queue: virtual queue popped under a non-virtual clock")
	}
	return v.Proc()
}

// now reads the consumer's clock.
func (q *Q[T]) now(p *vtime.Proc) time.Duration {
	if p != nil {
		return p.Now()
	}
	return time.Since(q.origin)
}

// Drain removes everything queued, without blocking, and returns it
// appended to dst. The queue keeps its backing array — emptied, so it
// pins nothing — and a consumer that passes the same dst[:0] every time
// keeps its own: a Put/Drain cycle allocates nothing once both have
// grown to the largest batch.
func (q *Q[T]) Drain(dst []T) []T {
	if q.sim == nil {
		q.mu.Lock()
		defer q.mu.Unlock()
	}
	dst = append(dst, q.items...)
	clear(q.items)
	q.items = q.items[:0]
	return dst
}
