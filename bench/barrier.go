package main

import "sync"

// barrier is a reusable rendezvous for a fixed number of parties that
// can be broken: once abort is called every present and future wait
// returns false, so one party's failure cannot strand the others.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	round   int
	broken  bool
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every party has arrived. The last to arrive runs
// last (if not nil) while the others are still parked, then all leave
// together; last returning false breaks the barrier. wait returns false
// if the barrier was broken.
func (b *barrier) wait(last func() bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		return false
	}
	b.waiting++
	if b.waiting == b.parties {
		if last != nil && !last() {
			b.broken = true
		}
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return !b.broken
	}
	for round := b.round; round == b.round && !b.broken; {
		b.cond.Wait()
	}
	return !b.broken
}

// abort breaks the barrier for good.
func (b *barrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
