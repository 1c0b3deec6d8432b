package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"panda/internal/vtime"
)

// runWorld runs fn on every rank of a real-time World and waits.
func runWorld(t *testing.T, size int, fn func(Comm)) {
	t.Helper()
	w := NewWorld(size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
}

// runSimWorld runs fn on every rank of a SimWorld under virtual time and
// returns the elapsed virtual time.
func runSimWorld(t *testing.T, size int, cfg LinkConfig, fn func(Comm)) time.Duration {
	t.Helper()
	sim := vtime.New()
	w := NewSimWorld(sim, size, cfg)
	for r := 0; r < size; r++ {
		r := r
		sim.Spawn(fmt.Sprintf("rank%d", r), func(p *vtime.Proc) {
			fn(w.Bind(r, p))
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return sim.Now()
}

func TestInprocSendRecv(t *testing.T) {
	runWorld(t, 2, func(c Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []byte("hello"))
		case 1:
			m := c.Recv(0, 7)
			if string(m.Data) != "hello" || m.Source != 0 || m.Tag != 7 {
				t.Errorf("got %+v", m)
			}
		}
	})
}

func TestInprocSendCopiesBuffer(t *testing.T) {
	w := NewWorld(2)
	buf := []byte("aaaa")
	done := make(chan struct{})
	go func() {
		defer close(done)
		m := w.Comm(1).Recv(0, 0)
		if string(m.Data) != "aaaa" {
			t.Errorf("message mutated: %q", m.Data)
		}
	}()
	w.Comm(0).Send(1, 0, buf)
	copy(buf, "bbbb") // must not affect the in-flight message
	<-done
}

func TestWildcardRecv(t *testing.T) {
	runWorld(t, 4, func(c Comm) {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 3; i++ {
				m := c.Recv(AnySource, AnyTag)
				seen[m.Source] = true
			}
			for r := 1; r < 4; r++ {
				if !seen[r] {
					t.Errorf("missing message from rank %d", r)
				}
			}
		} else {
			c.Send(0, c.Rank()*10, []byte{byte(c.Rank())})
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	runWorld(t, 2, func(c Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("five"))
			c.Send(1, 3, []byte("three"))
		} else {
			// Receive out of arrival order by tag.
			m3 := c.Recv(0, 3)
			m5 := c.Recv(0, 5)
			if string(m3.Data) != "three" || string(m5.Data) != "five" {
				t.Errorf("tag matching broken: %q %q", m3.Data, m5.Data)
			}
		}
	})
}

func TestSimSendRecvContent(t *testing.T) {
	runSimWorld(t, 2, SP2Link(), func(c Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, bytes.Repeat([]byte{0xAB}, 1000))
		} else {
			m := c.Recv(0, 9)
			if len(m.Data) != 1000 || m.Data[500] != 0xAB {
				t.Errorf("bad payload: len=%d", len(m.Data))
			}
		}
	})
}

func TestSimLatencyModel(t *testing.T) {
	cfg := SP2Link()
	// One small message: elapsed ≈ latency.
	elapsed := runSimWorld(t, 2, cfg, func(c Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 8))
		} else {
			c.Recv(0, 0)
		}
	})
	want := cfg.Latency + cfg.txTime(8)
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestSimBandwidthModel(t *testing.T) {
	cfg := LinkConfig{Latency: time.Millisecond, Bandwidth: 1e6} // 1 MB/s
	const n = 1 << 20
	elapsed := runSimWorld(t, 2, cfg, func(c Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, n))
		} else {
			c.Recv(0, 0)
		}
	})
	want := cfg.Latency + cfg.txTime(n) // ~1.001 s
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestSimIngressContention(t *testing.T) {
	// Two senders each push 1 MB to rank 0 at t=0 over a 1 MB/s
	// fabric; rank 0's ingress port serializes them, so total ≈ 2 s,
	// not 1 s.
	cfg := LinkConfig{Latency: 0, Bandwidth: 1e6}
	const n = 1 << 20
	elapsed := runSimWorld(t, 3, cfg, func(c Comm) {
		if c.Rank() == 0 {
			c.Recv(AnySource, 0)
			c.Recv(AnySource, 0)
		} else {
			c.Send(0, 0, make([]byte, n))
		}
	})
	lo := 2 * cfg.txTime(n)
	if elapsed < lo || elapsed > lo+time.Millisecond {
		t.Fatalf("elapsed = %v, want about %v (serialized ingress)", elapsed, lo)
	}
}

func TestSimEgressSerialization(t *testing.T) {
	// One sender pushes 1 MB to each of two receivers; its egress port
	// serializes the two transmissions.
	cfg := LinkConfig{Latency: 0, Bandwidth: 1e6}
	const n = 1 << 20
	elapsed := runSimWorld(t, 3, cfg, func(c Comm) {
		if c.Rank() == 0 {
			c.SendOwned(1, 0, make([]byte, n))
			c.SendOwned(2, 0, make([]byte, n))
		} else {
			c.Recv(0, 0)
		}
	})
	lo := 2 * cfg.txTime(n)
	if elapsed < lo || elapsed > lo+time.Millisecond {
		t.Fatalf("elapsed = %v, want about %v (serialized egress)", elapsed, lo)
	}
}

func TestSimDisjointPairsRunInParallel(t *testing.T) {
	// 0→1 and 2→3 share nothing, so the elapsed time equals one
	// transfer, not two.
	cfg := LinkConfig{Latency: 0, Bandwidth: 1e6}
	const n = 1 << 20
	elapsed := runSimWorld(t, 4, cfg, func(c Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 0, make([]byte, n))
		case 1:
			c.Recv(0, 0)
		case 2:
			c.Send(3, 0, make([]byte, n))
		case 3:
			c.Recv(2, 0)
		}
	})
	want := cfg.txTime(n)
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v (parallel disjoint transfers)", elapsed, want)
	}
}

func TestSimIsendOverlaps(t *testing.T) {
	// Isend lets a rank start a second transfer before waiting; total
	// equals serialized egress but both Waits return by then.
	cfg := LinkConfig{Latency: 0, Bandwidth: 1e6}
	const n = 1 << 20
	elapsed := runSimWorld(t, 3, cfg, func(c Comm) {
		if c.Rank() == 0 {
			r1 := c.Isend(1, 0, make([]byte, n))
			r2 := c.Isend(2, 0, make([]byte, n))
			r1.Wait()
			r2.Wait()
		} else {
			c.Recv(0, 0)
		}
	})
	want := 2 * cfg.txTime(n)
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestSimDeterministicTiming(t *testing.T) {
	run := func() time.Duration {
		return runSimWorld(t, 6, SP2Link(), func(c Comm) {
			if c.Rank() != 0 {
				c.Send(0, 1, make([]byte, 100*1024))
				c.Recv(0, 2)
			} else {
				for i := 1; i < 6; i++ {
					c.Recv(AnySource, 1)
				}
				for i := 1; i < 6; i++ {
					c.Send(i, 2, make([]byte, 10*1024))
				}
			}
		})
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic virtual time: %v vs %v", a, b)
	}
}

func TestSendOwnedDeliversSameBytes(t *testing.T) {
	runWorld(t, 2, func(c Comm) {
		if c.Rank() == 0 {
			c.SendOwned(1, 0, []byte{1, 2, 3})
		} else {
			m := c.Recv(0, 0)
			if !bytes.Equal(m.Data, []byte{1, 2, 3}) {
				t.Errorf("got %v", m.Data)
			}
		}
	})
}

func TestRankSizeAccessors(t *testing.T) {
	w := NewWorld(5)
	c := w.Comm(3)
	if c.Rank() != 3 || c.Size() != 5 {
		t.Fatalf("Rank/Size = %d/%d", c.Rank(), c.Size())
	}
}

func TestInvalidPeerPanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range peer")
		}
	}()
	w.Comm(0).Send(5, 0, nil)
}

func TestSimSelectiveRecvBySourceAndTag(t *testing.T) {
	// A rank receives out of arrival order by (source, tag) under the
	// simulated transport's mailbox.
	runSimWorld(t, 3, SP2Link(), func(c Comm) {
		switch c.Rank() {
		case 1:
			c.Send(0, 5, []byte("one-five"))
		case 2:
			c.Send(0, 5, []byte("two-five"))
			c.Send(0, 9, []byte("two-nine"))
		case 0:
			if m := c.Recv(2, 9); string(m.Data) != "two-nine" {
				t.Errorf("got %q", m.Data)
			}
			if m := c.Recv(1, AnyTag); string(m.Data) != "one-five" {
				t.Errorf("got %q", m.Data)
			}
			if m := c.Recv(AnySource, 5); string(m.Data) != "two-five" {
				t.Errorf("got %q", m.Data)
			}
		}
	})
}

func TestSimWorldBytesMoved(t *testing.T) {
	sim := vtime.New()
	w := NewSimWorld(sim, 2, SP2Link())
	sim.Spawn("a", func(p *vtime.Proc) {
		c := w.Bind(0, p)
		c.Send(1, 0, make([]byte, 1000))
	})
	sim.Spawn("b", func(p *vtime.Proc) {
		w.Bind(1, p).Recv(0, 0)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if w.BytesMoved() != 1000 {
		t.Fatalf("BytesMoved = %d", w.BytesMoved())
	}
}
