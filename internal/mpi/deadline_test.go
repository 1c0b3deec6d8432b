package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"panda/internal/clock"
	"panda/internal/vtime"
)

func TestInprocRecvTimeoutExpires(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(0).(DeadlineComm)
	start := time.Now()
	_, err := c.RecvTimeout(1, 7, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("returned after %v, before the bound", elapsed)
	}
}

func TestInprocRecvTimeoutDelivers(t *testing.T) {
	w := NewWorld(2)
	go func() {
		time.Sleep(10 * time.Millisecond)
		w.Comm(1).Send(0, 7, []byte("late but in time"))
	}()
	m, err := w.Comm(0).(DeadlineComm).RecvTimeout(1, 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "late but in time" {
		t.Fatalf("got %q", m.Data)
	}
}

func TestInprocRecvTimeoutQueuedMessage(t *testing.T) {
	// A message already delivered must be returned instantly even with
	// a tiny bound.
	w := NewWorld(2)
	w.Comm(1).Send(0, 3, []byte("queued"))
	m, err := w.Comm(0).(DeadlineComm).RecvTimeout(1, 3, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "queued" {
		t.Fatalf("got %q", m.Data)
	}
}

func TestSimRecvTimeoutAdvancesVirtualTime(t *testing.T) {
	sim := vtime.New()
	w := NewSimWorld(sim, 2, SP2Link())
	var elapsed time.Duration
	var rerr error
	sim.Spawn("waiter", func(p *vtime.Proc) {
		c := w.Bind(0, p).(DeadlineComm)
		_, rerr = c.RecvTimeout(1, 5, 250*time.Millisecond)
		elapsed = p.Now()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rerr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", rerr)
	}
	if elapsed != 250*time.Millisecond {
		t.Fatalf("virtual elapsed = %v, want exactly 250ms", elapsed)
	}
}

func TestSimRecvTimeoutDelivery(t *testing.T) {
	sim := vtime.New()
	w := NewSimWorld(sim, 2, SP2Link())
	var got Message
	var rerr error
	sim.Spawn("waiter", func(p *vtime.Proc) {
		got, rerr = w.Bind(0, p).(DeadlineComm).RecvTimeout(1, 5, time.Second)
	})
	sim.Spawn("sender", func(p *vtime.Proc) {
		p.Sleep(100 * time.Millisecond)
		w.Bind(1, p).Send(0, 5, []byte("sim"))
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got.Data) != "sim" {
		t.Fatalf("got %+v", got)
	}
	// The stale timeout event must not fire a spurious wake for a later
	// receive: run a second bounded receive that also completes.
	sim2 := vtime.New()
	w2 := NewSimWorld(sim2, 2, SP2Link())
	var errs [2]error
	sim2.Spawn("waiter", func(p *vtime.Proc) {
		c := w2.Bind(0, p).(DeadlineComm)
		_, errs[0] = c.RecvTimeout(1, 5, time.Second)
		_, errs[1] = c.RecvTimeout(1, 6, 50*time.Millisecond)
	})
	sim2.Spawn("sender", func(p *vtime.Proc) {
		p.Sleep(10 * time.Millisecond)
		w2.Bind(1, p).Send(0, 5, []byte("first"))
	})
	if err := sim2.Run(); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if !errors.Is(errs[1], ErrTimeout) {
		t.Fatalf("second receive: %v, want ErrTimeout", errs[1])
	}
}

// --- FaultComm ----------------------------------------------------------

func faultPair(t *testing.T, plan *FaultPlan) (a, b *FaultComm) {
	t.Helper()
	w := NewWorld(2)
	clk := clock.NewReal()
	return WrapFault(w.Comm(0), plan, clk), WrapFault(w.Comm(1), plan, clk)
}

func TestFaultCommDropAll(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.DropProb = 1.0
	a, b := faultPair(t, plan)
	a.Send(1, 4, []byte("doomed"))
	_, err := b.RecvTimeout(0, 4, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if st := plan.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 1 drop", st)
	}
}

func TestFaultCommDuplicate(t *testing.T) {
	plan := NewFaultPlan(2)
	plan.DupProb = 1.0
	a, b := faultPair(t, plan)
	a.Send(1, 4, []byte("twice"))
	for i := 0; i < 2; i++ {
		m, err := b.RecvTimeout(0, 4, time.Second)
		if err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		if string(m.Data) != "twice" {
			t.Fatalf("copy %d: %q", i, m.Data)
		}
	}
	if st := plan.Stats(); st.Duplicated != 1 {
		t.Fatalf("stats = %+v, want 1 dup", st)
	}
}

func TestFaultCommReorderSwapsAdjacent(t *testing.T) {
	plan := NewFaultPlan(3)
	plan.ReorderProb = 1.0
	a, b := faultPair(t, plan)
	a.Send(1, 4, []byte{1}) // held back
	plan.ReorderProb = 0
	a.Send(1, 4, []byte{2}) // delivered first, then releases the held one
	first, err := b.RecvTimeout(0, 4, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.RecvTimeout(0, 4, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if first.Data[0] != 2 || second.Data[0] != 1 {
		t.Fatalf("order = %d,%d, want the swap 2,1", first.Data[0], second.Data[0])
	}
	if st := plan.Stats(); st.Reordered != 1 {
		t.Fatalf("stats = %+v, want 1 reorder", st)
	}
}

func TestFaultCommDelayHoldsSender(t *testing.T) {
	plan := NewFaultPlan(4)
	plan.DelayProb = 1.0
	plan.Delay = 40 * time.Millisecond
	a, b := faultPair(t, plan)
	start := time.Now()
	a.Send(1, 4, []byte("slow"))
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("send returned after %v, want the injected delay", elapsed)
	}
	if _, err := b.RecvTimeout(0, 4, time.Second); err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(); st.Delayed != 1 {
		t.Fatalf("stats = %+v, want 1 delay", st)
	}
}

func TestFaultCommCrash(t *testing.T) {
	plan := NewFaultPlan(5)
	a, b := faultPair(t, plan)
	plan.CrashRank(0)

	// Crashed rank's sends vanish (AnySource so the wait itself does
	// not fail on the peer check).
	a.Send(1, 4, []byte("from the grave"))
	if _, err := b.RecvTimeout(AnySource, 4, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv from crashed rank: %v, want ErrTimeout", err)
	}
	// Waiting on a crashed peer fails fast with ErrPeerLost.
	if _, err := b.RecvTimeout(0, 4, time.Minute); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("err = %v, want ErrPeerLost", err)
	}
	// A crashed rank's own receives fail too.
	if _, err := a.RecvTimeout(1, 4, time.Minute); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("crashed self recv: %v, want ErrPeerLost", err)
	}
	if !b.PeerLost(0) {
		t.Fatal("PeerLost(0) = false after crash")
	}

	// Heal revives the deployment.
	plan.Heal()
	if b.PeerLost(0) {
		t.Fatal("PeerLost(0) after Heal")
	}
	a.Send(1, 4, []byte("alive"))
	m, err := b.RecvTimeout(0, 4, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Data) != "alive" {
		t.Fatalf("got %q", m.Data)
	}
}

func TestFaultCommCrashWakesBlockedReceive(t *testing.T) {
	// A receive already parked on a specific rank must notice a crash
	// injected afterwards (the quantized wait re-checks the plan).
	plan := NewFaultPlan(6)
	_, b := faultPair(t, plan)
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		_, err = b.RecvTimeout(0, 4, 10*time.Second)
	}()
	time.Sleep(30 * time.Millisecond)
	plan.CrashRank(0)
	wg.Wait()
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("err = %v, want ErrPeerLost", err)
	}
}

// TestFaultCommSelfSendSkipsThePlan: a message a rank sends itself is a
// loopback, not a link — it arrives under total loss, while the same
// send to a peer does not.
func TestFaultCommSelfSendSkipsThePlan(t *testing.T) {
	plan := NewFaultPlan(8)
	plan.DropProb = 1.0
	a, b := faultPair(t, plan)
	a.Send(0, 4, []byte("loopback"))
	a.SendOwned(0, 5, []byte("owned loopback"))
	a.Send(1, 4, []byte("to a peer"))
	for _, tag := range []int{4, 5} {
		if _, err := a.RecvTimeout(0, tag, time.Second); err != nil {
			t.Fatalf("self-send on tag %d: %v", tag, err)
		}
	}
	if _, err := b.RecvTimeout(0, 4, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("peer send under DropProb 1: %v, want ErrTimeout", err)
	}
	if st := plan.Stats(); st.Dropped != 1 {
		t.Fatalf("stats = %+v, want the one peer send dropped", st)
	}
}

// TestFaultCommViewSendsOnItsOwnProcess: on simnet the view another
// activity of a rank takes (RebindComm) sends on that activity's
// process — the node's own process has already returned, so a view
// still bound to it could not park — under the same shared plan.
func TestFaultCommViewSendsOnItsOwnProcess(t *testing.T) {
	sim := vtime.New()
	w := NewSimWorld(sim, 2, SP2Link())
	plan := NewFaultPlan(9)
	plan.DupProb = 1.0
	var took time.Duration
	sim.Spawn("node", func(p *vtime.Proc) {
		clk := clock.NewVirtual(p)
		node := WrapFault(w.Bind(0, p), plan, clk)
		clk.Go("helper", func(hclk clock.Clock) {
			view := RebindComm(node, hclk)
			if _, ok := view.(*FaultComm); !ok || view == Comm(node) {
				t.Errorf("RebindComm returned %T %p for node %p: want a view of its own", view, view, node)
			}
			t0 := hclk.Now()
			view.Send(1, 4, make([]byte, 64<<10))
			took = hclk.Now() - t0
		})
	})
	got := 0
	sim.Spawn("peer", func(p *vtime.Proc) {
		c := w.Bind(1, p).(DeadlineComm)
		for {
			if _, err := c.RecvTimeout(0, 4, time.Second); err != nil {
				return
			}
			got++
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := SP2Link().txTime(64 << 10); took < want {
		t.Errorf("the view's send took %v of its process's time, want at least the %v on the wire", took, want)
	}
	if got != 2 || plan.Stats().Duplicated != 1 {
		t.Errorf("peer got %d copies, plan %+v: the view must roll the shared plan", got, plan.Stats())
	}
}

// TestFaultCommViewsSendConcurrently: two activities of one rank send
// at once, each through its own view, with reordering on — clean under
// -race (a shared held-back send would not be), and every message but
// at most one held back per view arrives.
func TestFaultCommViewsSendConcurrently(t *testing.T) {
	plan := NewFaultPlan(10)
	plan.ReorderProb = 0.5
	a, b := faultPair(t, plan)
	const each = 200
	var wg sync.WaitGroup
	for v := 0; v < 2; v++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := RebindComm(a, clock.NewReal())
			for i := 0; i < each; i++ {
				view.Send(1, 4, []byte{byte(i)})
			}
		}()
	}
	wg.Wait()
	got := 0
	for {
		if _, err := b.RecvTimeout(0, 4, 30*time.Millisecond); err != nil {
			break
		}
		got++
	}
	if got < 2*each-2 || got > 2*each {
		t.Fatalf("received %d of %d messages", got, 2*each)
	}
}

func TestFaultCommSeededSchedulesReproduce(t *testing.T) {
	run := func() FaultStats {
		plan := NewFaultPlan(99)
		plan.DropProb, plan.DupProb, plan.DelayProb = 0.3, 0.2, 0.1
		w := NewWorld(2)
		a := WrapFault(w.Comm(0), plan, clock.NewReal())
		for i := 0; i < 200; i++ {
			a.Send(1, 1, []byte{byte(i)})
		}
		return plan.Stats()
	}
	if s1, s2 := run(), run(); s1 != s2 {
		t.Fatalf("same seed, different schedules: %+v vs %+v", s1, s2)
	}
}
