package core

import (
	"errors"
	"sync"
	"time"

	"panda/internal/clock"
	"panda/internal/vtime"
)

var errMboxTimeout = errors.New("core: mailbox wait timed out")

// mbox is a clock-aware multi-producer queue with predicate-matched
// receive — the one queue between concurrent activities of a node: the
// scheduler's routers use one per operation to hand frames to
// executors, the storage stage uses one as its request queue, and every
// sink and source one for its replies. Under a real clock it is a
// mutex+cond queue; under a virtual clock it parks the consuming
// process on the simulation, keeping vtime runs deterministic. At most
// one consumer may block at a time.
type mbox[T any] interface {
	// put appends v.
	put(v T)
	// pop removes and returns the first element matching pred (nil
	// matches everything). timeout <= 0 blocks until a match; otherwise
	// the wait is bounded and expires with errMboxTimeout. clk must be
	// the caller's own clock.
	pop(clk clock.Clock, pred func(T) bool, timeout time.Duration) (T, error)
	// drain removes and returns everything queued, without blocking.
	drain() []T
}

// newMbox picks the implementation matching clk.
func newMbox[T any](clk clock.Clock) mbox[T] {
	if v, ok := clk.(*clock.Virtual); ok {
		return &vmbox[T]{sim: v.Proc().Sim()}
	}
	r := &rmbox[T]{}
	r.cond.L = &r.mu
	return r
}

// rmbox is the real-time implementation: a mutex+cond queue with the
// same AfterFunc wakeup discipline as the mpi inproc mailbox.
type rmbox[T any] struct {
	mu    sync.Mutex
	cond  sync.Cond
	items []T
}

func (b *rmbox[T]) put(v T) {
	b.mu.Lock()
	b.items = append(b.items, v)
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *rmbox[T]) pop(_ clock.Clock, pred func(T) bool, timeout time.Duration) (T, error) {
	var zero T
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// The timer takes the lock before broadcasting so the wakeup
		// cannot fall between a waiter's deadline check and its Wait.
		t := time.AfterFunc(timeout, func() {
			b.mu.Lock()
			b.mu.Unlock() //nolint:staticcheck // empty section synchronizes with waiters
			b.cond.Broadcast()
		})
		defer t.Stop()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, v := range b.items {
			if pred == nil || pred(v) {
				b.items = append(b.items[:i], b.items[i+1:]...)
				return v, nil
			}
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return zero, errMboxTimeout
		}
		b.cond.Wait()
	}
}

func (b *rmbox[T]) drain() []T {
	b.mu.Lock()
	out := b.items
	b.items = nil
	b.mu.Unlock()
	return out
}

// vmbox is the virtual-time implementation. Access needs no lock: the
// simulation runs one process at a time, and its handoff channels order
// every touch. The waiter/waitGen pair follows simnet's RecvTimeout: a
// timeout event fires only if the same park is still outstanding.
type vmbox[T any] struct {
	sim     *vtime.Sim
	items   []T
	waiter  *vtime.Proc
	waitGen uint64
}

func (b *vmbox[T]) put(v T) {
	b.items = append(b.items, v)
	if p := b.waiter; p != nil {
		b.waiter = nil
		b.sim.Wake(p)
	}
}

func (b *vmbox[T]) pop(clk clock.Clock, pred func(T) bool, timeout time.Duration) (T, error) {
	var zero T
	v, ok := clk.(*clock.Virtual)
	if !ok {
		panic("core: virtual mailbox popped under a non-virtual clock")
	}
	p := v.Proc()
	var deadline time.Duration
	if timeout > 0 {
		deadline = p.Now() + timeout
	}
	for {
		for i, it := range b.items {
			if pred == nil || pred(it) {
				b.items = append(b.items[:i], b.items[i+1:]...)
				return it, nil
			}
		}
		if timeout > 0 && p.Now() >= deadline {
			return zero, errMboxTimeout
		}
		b.waiter = p
		b.waitGen++
		if timeout > 0 {
			gen := b.waitGen
			b.sim.At(deadline, func() {
				if b.waiter == p && b.waitGen == gen {
					b.waiter = nil
					b.sim.Wake(p)
				}
			})
		}
		p.Park()
	}
}

func (b *vmbox[T]) drain() []T {
	out := b.items
	b.items = nil
	return out
}
