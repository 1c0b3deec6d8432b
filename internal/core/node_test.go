package core

import (
	"testing"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
)

// bareServer is a Server with counters and nothing else, for driving a
// router by hand.
func bareServer(cfg Config) *Server {
	total := newNodeCounters(nil)
	return &Server{node: node{cfg: cfg, cnt: total, met: newNodeMetrics(nil)}, total: total}
}

// TestOpFramesRetiredBound fills each role's retired-op set to its
// bound, then retires one more op through the router's own path (the
// executor's loopback frame): the set starts over with that op, and a
// live op's frames still reach its mailbox afterwards.
func TestOpFramesRetiredBound(t *testing.T) {
	clk := clock.NewReal()
	fill := func(f *opFrames) {
		for seq := 100; len(f.done) < retiredBound; seq++ {
			f.retire(seq, 0)
		}
	}
	check := func(role string, f *opFrames, live *queue.Q[mpi.Message], tag int) {
		t.Helper()
		if n := len(f.done); n != 1 {
			t.Errorf("%s: %d retired ops remembered after the bound, want 1", role, n)
		}
		if _, ok := f.retired(6); !ok {
			t.Errorf("%s: op 6 retired past the bound is not remembered", role)
		}
		if got := live.Drain(nil); len(got) != 1 || got[0].Tag != tag {
			t.Errorf("%s: live op 5's mailbox holds %v, want its one frame", role, got)
		}
	}

	t.Run("client", func(t *testing.T) {
		comm := mpi.NewWorld(1).Comm(0)
		r := &clientRouter{
			c:       NewClient(schedCfg(1, 1, 2), comm, clk),
			frames:  newOpFrames(),
			appDone: queue.New[mpi.Message](clk),
			exited:  queue.New[struct{}](clk),
		}
		live := queue.New[mpi.Message](clk)
		r.frames.bind(5, live)
		r.frames.bind(6, queue.New[mpi.Message](clk))
		fill(r.frames)
		comm.Send(0, tagSchedDone, encodeSchedDone(6, false))
		comm.Send(0, tagToClient(5), []byte{msgSubData})
		comm.Send(0, tagRouterStop, nil)
		r.run(asEndpoint(comm))
		check("client", r.frames, live, tagToClient(5))
	})

	t.Run("server", func(t *testing.T) {
		r := &schedRouter{s: bareServer(schedCfg(1, 1, 2)), ops: make(map[int]*schedOp), frames: newOpFrames()}
		live := queue.New[mpi.Message](clk)
		for seq, box := range map[int]*queue.Q[mpi.Message]{5: live, 6: queue.New[mpi.Message](clk)} {
			op := &schedOp{seq: seq, ex: &executor[*schedOp]{box: box}}
			op.lane, _ = r.lanes.take(nil, "server", 0)
			r.ops[seq] = op
			r.inflight++
			r.frames.bind(seq, box)
		}
		fill(r.frames)
		r.route(mpi.Message{Tag: tagSchedDone, Data: encodeSchedDone(6, false)})
		r.route(mpi.Message{Tag: tagToServer(5), Data: []byte{msgSubData}})
		check("server", r.frames, live, tagToServer(5))
	})
}

// TestOpFramesStashReuse checks the stash's slice economy: a stash
// replayed into its op's mailbox leaves its emptied slice for the next
// op that needs one, and a frame for an op neither bound nor coming is
// refused.
func TestOpFramesStashReuse(t *testing.T) {
	clk := clock.NewReal()
	f := newOpFrames()
	if f.deliver(8, mpi.Message{Tag: tagToServer(8)}, false) {
		t.Fatal("a frame for an op neither bound nor coming was taken")
	}
	if !f.deliver(9, mpi.Message{Tag: tagToServer(9)}, true) {
		t.Fatal("a frame for a coming op was refused")
	}
	first := &f.stash[9][0]
	box := queue.New[mpi.Message](clk)
	f.bind(9, box)
	if got := box.Drain(nil); len(got) != 1 || got[0].Tag != tagToServer(9) {
		t.Fatalf("bind(9) replayed %v, want the stashed frame", got)
	}
	f.deliver(10, mpi.Message{Tag: tagToServer(10)}, true)
	if &f.stash[10][0] != first {
		t.Error("the replayed stash's slice was not reused for the next stash")
	}
	if len(f.spare) != 0 {
		t.Errorf("%d spare stash slices left, want 0", len(f.spare))
	}
}
