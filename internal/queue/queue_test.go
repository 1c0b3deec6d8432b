package queue

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"panda/internal/clock"
	"panda/internal/vtime"
)

// arms runs body once per arm of the queue: on the wall clock, and as a
// process of a fresh simulation. body starts its helpers with clk.Go and
// joins them through queues, which works identically on both.
func arms(t *testing.T, body func(t *testing.T, clk clock.Clock)) {
	t.Run("real", func(t *testing.T) { body(t, clock.NewReal()) })
	t.Run("vtime", func(t *testing.T) {
		sim := vtime.New()
		sim.Spawn("main", func(p *vtime.Proc) { body(t, clock.NewVirtual(p)) })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func virtual(clk clock.Clock) bool {
	_, ok := clk.(*clock.Virtual)
	return ok
}

func even(v int) bool { return v%2 == 0 }

func TestFIFOAmongMatchesSkipsNonMatches(t *testing.T) {
	arms(t, func(t *testing.T, clk clock.Clock) {
		q := New[int](clk)
		for v := 1; v <= 6; v++ {
			q.Put(v)
		}
		var got []int
		for i := 0; i < 2; i++ {
			v, err := q.Pop(clk, even, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
		}
		for i := 0; i < 4; i++ {
			v, _ := q.Pop(clk, nil, nil, 0)
			got = append(got, v)
		}
		if want := []int{2, 4, 1, 3, 5, 6}; !reflect.DeepEqual(got, want) {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	})
}

// A bounded wait that nothing satisfies returns at its deadline — not at
// the wake-up a non-matching Put causes halfway — and takes nothing.
func TestBoundedWaitExpiresAtDeadlineAndLeavesQueueIntact(t *testing.T) {
	arms(t, func(t *testing.T, clk clock.Clock) {
		const timeout = 40 * time.Millisecond
		q := New[int](clk)
		q.Put(1)
		q.Put(3)
		clk.Go("producer", func(clk clock.Clock) {
			clk.Sleep(timeout / 2)
			q.Put(5)
		})
		t0 := clk.Now()
		_, err := q.Pop(clk, even, nil, timeout)
		waited := clk.Now() - t0
		if err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if waited < timeout || (virtual(clk) && waited != timeout) {
			t.Fatalf("waited %v for a %v bound", waited, timeout)
		}
		if got, want := q.Drain(nil), []int{1, 3, 5}; !reflect.DeepEqual(got, want) {
			t.Fatalf("queue after the timeout holds %v, want %v", got, want)
		}
		if got := q.Drain(nil); len(got) != 0 {
			t.Fatalf("second drain returned %v", got)
		}
	})
}

// A Put that lands on either side of a sub-millisecond deadline is never
// lost, and neither is its wake-up: the round's element is what the
// bounded Pop returns, or what the Pop after its timeout does.
func TestPutRacingTimeoutLosesNothing(t *testing.T) {
	rounds := 10000
	if testing.Short() {
		rounds = 2000
	}
	clk := clock.NewReal()
	q := New[int](clk)
	start := make(chan time.Duration)
	go func() {
		i := 0
		for d := range start {
			for t0 := time.Now(); time.Since(t0) < d; { // Sleep is far too coarse to straddle the deadline
				runtime.Gosched()
			}
			q.Put(i)
			i++
		}
	}()
	defer close(start)
	rng := rand.New(rand.NewSource(1))
	timedOut := 0
	for i := 0; i < rounds; i++ {
		timeout := time.Duration(20+rng.Intn(200)) * time.Microsecond
		start <- time.Duration(rng.Int63n(int64(2 * timeout)))
		v, err := q.Pop(clk, nil, nil, timeout)
		if err == ErrTimeout {
			timedOut++
			v, err = q.Pop(clk, nil, nil, 10*time.Second)
		}
		if err != nil || v != i {
			t.Fatalf("round %d: got %d, %v", i, v, err)
		}
	}
	t.Logf("%d of %d rounds timed out first", timedOut, rounds)
}

var errLinkDown = errors.New("link down")

// Wake after a state change ends a blocked wait with check's error, and
// what was queued before the failure is still delivered first.
func TestWakeEndsBlockedWaitWithTypedError(t *testing.T) {
	for name, timeout := range map[string]time.Duration{"unbounded": 0, "bounded": time.Hour} {
		t.Run(name, func(t *testing.T) { wakeEndsWait(t, timeout) })
	}
}

func wakeEndsWait(t *testing.T, timeout time.Duration) {
	arms(t, func(t *testing.T, clk clock.Clock) {
		q := New[int](clk)
		var mu sync.Mutex
		var down error
		check := func() error {
			mu.Lock()
			defer mu.Unlock()
			return down
		}
		clk.Go("transport", func(clk clock.Clock) {
			clk.Sleep(5 * time.Millisecond)
			q.Put(7)
			mu.Lock()
			down = fmt.Errorf("rank 3: %w", errLinkDown)
			mu.Unlock()
			q.Wake()
		})
		if v, err := q.Pop(clk, nil, check, timeout); err != nil || v != 7 {
			t.Fatalf("queued element: got %d, %v", v, err)
		}
		if _, err := q.Pop(clk, nil, check, timeout); !errors.Is(err, errLinkDown) {
			t.Fatalf("err = %v, want the check's error", err)
		}
	})
}

func TestSecondBlockedConsumerPanics(t *testing.T) {
	arms(t, func(t *testing.T, clk clock.Clock) {
		q := New[int](clk)
		panicked, returned := New[string](clk), New[string](clk)
		for _, name := range []string{"a", "b"} {
			name := name
			clk.Go(name, func(clk clock.Clock) {
				defer func() {
					if r := recover(); r != nil {
						panicked.Put(name)
					}
				}()
				q.Pop(clk, nil, nil, 0) //nolint:errcheck // unbounded
				returned.Put(name)
			})
		}
		// Whichever blocks second panics; the first is still waiting and
		// takes the element.
		loser, err := panicked.Pop(clk, nil, nil, 10*time.Second)
		if err != nil {
			t.Fatal("two consumers blocked on one queue and neither panicked")
		}
		q.Put(1)
		winner, err := returned.Pop(clk, nil, nil, 10*time.Second)
		if err != nil || winner == loser {
			t.Fatalf("after %q panicked: %q returned, err %v", loser, winner, err)
		}
		if extra := panicked.Drain(nil); len(extra) != 0 {
			t.Fatalf("both consumers panicked")
		}
	})
}

// wakeLog runs four consumers with staggered bounds against producers
// whose Puts and the bounds' expiries collide on the same instants, and
// returns who woke when with what.
func wakeLog(t *testing.T) []string {
	sim := vtime.New()
	var log []string
	qs := make([]*Q[int], 4)
	for i := range qs {
		qs[i] = NewSim[int](sim)
	}
	for i, q := range qs {
		i, q := i, q
		sim.Spawn(fmt.Sprintf("consumer%d", i), func(p *vtime.Proc) {
			clk := clock.NewVirtual(p)
			for n := 0; n < 6; n++ {
				v, err := q.Pop(clk, even, nil, time.Duration(i+1)*time.Millisecond)
				log = append(log, fmt.Sprintf("%v consumer%d %d %v", p.Now(), i, v, err))
			}
		})
	}
	for j := 0; j < 2; j++ {
		j := j
		sim.Spawn(fmt.Sprintf("producer%d", j), func(p *vtime.Proc) {
			for n := 0; n < 8; n++ {
				p.Sleep(time.Millisecond)
				for _, q := range qs {
					q.Put(2*n + j)
				}
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

func TestVirtualWakeOrderIsDeterministic(t *testing.T) {
	a, b := wakeLog(t), wakeLog(t)
	if len(a) != 24 {
		t.Fatalf("%d wake-ups logged, want 24", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestVirtualQueueRejectsRealClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a virtual queue accepted a wall-clock consumer")
		}
	}()
	NewSim[int](vtime.New()).Pop(clock.NewReal(), nil, nil, 0) //nolint:errcheck // panics
}
