package vtime

import (
	"errors"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var woke time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestSleepZeroYields(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var times []time.Duration
	for _, d := range []time.Duration{30, 10, 20} {
		d := d * time.Millisecond
		s.At(d, func() { times = append(times, s.Now()) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 || times[0] != 10*time.Millisecond || times[1] != 20*time.Millisecond || times[2] != 30*time.Millisecond {
		t.Fatalf("fire times = %v", times)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of schedule order: %v", order)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	s.Spawn("stuck", func(p *Proc) {
		p.Park() // nothing will ever wake it
	})
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(dl.Parked) != 1 || dl.Parked[0] != "stuck" {
		t.Fatalf("parked = %v", dl.Parked)
	}
}

// handoff is the prop the tests below pass values through: an unbounded
// queue built directly on Park/Wake, with at most one parked consumer.
type handoff struct {
	s      *Sim
	items  []int
	closed bool
	waiter *Proc
}

func (q *handoff) push(v int) {
	q.items = append(q.items, v)
	q.wake()
}

func (q *handoff) close() {
	q.closed = true
	q.wake()
}

func (q *handoff) wake() {
	if w := q.waiter; w != nil {
		q.waiter = nil
		q.s.Wake(w)
	}
}

func (q *handoff) pop(p *Proc) (int, bool) {
	for len(q.items) == 0 && !q.closed {
		q.waiter = p
		p.Park()
	}
	if len(q.items) == 0 {
		return 0, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

func TestPortSerializesReservations(t *testing.T) {
	var po Port
	d1 := po.Reserve(0, 10*time.Millisecond)
	d2 := po.Reserve(0, 10*time.Millisecond)
	d3 := po.Reserve(50*time.Millisecond, 10*time.Millisecond)
	if d1 != 10*time.Millisecond || d2 != 20*time.Millisecond {
		t.Fatalf("overlapping reservations: %v %v", d1, d2)
	}
	if d3 != 60*time.Millisecond {
		t.Fatalf("idle port reservation: %v, want 60ms", d3)
	}
	if po.Busy() != 30*time.Millisecond {
		t.Fatalf("busy = %v, want 30ms", po.Busy())
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := New()
	var childRan bool
	s.Spawn("parent", func(p *Proc) {
		s.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(2 * time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child process did not run")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New()
		q := &handoff{s: s}
		var stamps []time.Duration
		s.Spawn("p", func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.Sleep(time.Duration(i) * time.Millisecond)
				q.push(i)
			}
			q.close()
		})
		s.Spawn("c", func(p *Proc) {
			for _, ok := q.pop(p); ok; _, ok = q.pop(p) {
				stamps = append(stamps, p.Now())
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return stamps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: run1=%v run2=%v", a, b)
		}
	}
}

func TestWakeNonParkedPanics(t *testing.T) {
	s := New()
	p := s.Spawn("p", func(p *Proc) { p.Sleep(time.Hour) })
	s.At(time.Minute, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic waking parked process twice at same instant? no - this wake is legal")
			}
		}()
	})
	_ = p
	// Direct check: waking a process that never parked panics when fired.
	s2 := New()
	p2 := s2.Spawn("q", func(p *Proc) {})
	s2.Wake(p2) // q finishes immediately; wake fires after and must panic
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on waking non-parked process")
		}
	}()
	_ = s2.Run()
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		p.Sleep(time.Second)
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(time.Millisecond, func() {})
	})
	_ = s.Run()
}

func TestEventCount(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Events() != 5 {
		t.Fatalf("Events = %d, want 5", s.Events())
	}
}

func TestStressManyProcessesMonotonicTime(t *testing.T) {
	// Hundreds of processes doing pseudo-random sleeps and Park/Wake
	// hand-offs (producer/consumer pairs): time must be monotone per process,
	// every process must finish, and the run must be deterministic.
	run := func() (uint64, time.Duration) {
		s := New()
		const pairs = 100
		nap := func(p *Proc, seed *uint64, last *time.Duration) {
			*seed = *seed*6364136223846793005 + 1442695040888963407
			p.Sleep(time.Duration(*seed%1000) * time.Microsecond)
			if p.Now() < *last {
				t.Errorf("time went backwards")
			}
			*last = p.Now()
		}
		for i := 0; i < pairs; i++ {
			i := i
			q := &handoff{s: s}
			s.Spawn("producer", func(p *Proc) {
				last, seed := p.Now(), uint64(i*2654435761+17)
				for step := 0; step < 20; step++ {
					nap(p, &seed, &last)
					if step%3 == 0 {
						q.push(step)
					}
				}
				q.close()
			})
			s.Spawn("consumer", func(p *Proc) {
				last, seed := p.Now(), uint64(i*40503+5)
				n := 0
				for _, ok := q.pop(p); ok; _, ok = q.pop(p) {
					n++
					nap(p, &seed, &last)
				}
				if n != 7 {
					t.Errorf("pair %d delivered %d of 7 values", i, n)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Events(), s.Now()
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("non-deterministic stress run: (%d,%v) vs (%d,%v)", e1, t1, e2, t2)
	}
}
