package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/queue"
	"panda/internal/storage"
)

// TestTagSpace pins the bound protocol.go states: the last operation of
// the last session's window still has three distinct tags that fit the
// wire's u32 after its +1, and tagOpSeq inverts every one of them.
func TestTagSpace(t *testing.T) {
	last := maxSessionID<<sessionSeqBits + 1<<sessionSeqBits - 1
	if last != maxSeq {
		t.Fatalf("maxSeq = %d, but the last op of session %d is %d", maxSeq, maxSessionID, last)
	}
	if SessionIDOfSeq(last) != maxSessionID {
		t.Fatalf("SessionIDOfSeq(%d) = %d, want %d", last, SessionIDOfSeq(last), maxSessionID)
	}
	for _, seq := range []int{0, 1, 1<<sessionSeqBits - 1, 1 << sessionSeqBits, maxSeq} {
		for family, tag := range []int{tagToServer(seq), tagToClient(seq), tagDoneFor(seq)} {
			if wire := int64(tag) + 1; wire <= 0 || wire > math.MaxUint32 {
				t.Errorf("seq %d family %d: wire tag %d does not fit a u32", seq, family, wire)
			}
			gotSeq, gotFamily, ok := tagOpSeq(tag)
			if !ok || gotSeq != seq || gotFamily != family {
				t.Errorf("tagOpSeq(%d) = (%d, %d, %v), want (%d, %d, true)", tag, gotSeq, gotFamily, ok, seq, family)
			}
		}
	}
	for _, tag := range []int{0, 9, tagAppDone, tagControl, tagSchedDone, tagRouterStop} {
		if _, _, ok := tagOpSeq(tag); ok {
			t.Errorf("fixed tag %d classified as an operation's", tag)
		}
	}
	// One past the bound is what the client must never send: it wraps.
	if wire := int64(tagDoneFor(maxSeq+1)) + 1; wire <= math.MaxUint32 {
		t.Errorf("maxSeq is not tight: seq %d still fits (wire %d)", maxSeq+1, wire)
	}
}

// TestSeqWindowRefusedBeforeTheWire: a session that has used its whole
// sequence window gets a typed refusal for the next collective — at
// once, with nothing sent — instead of running it under the next
// session's first sequence number, where the server router drops the
// request as a duplicate and the caller waits out its timeout.
func TestSeqWindowRefusedBeforeTheWire(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 1 << 10,
		Service: true, Sched: SchedConfig{MaxInflight: 1}, OpTimeout: 3 * time.Second}
	world := mpi.NewWorld(cfg.WorldSize())
	svc, err := NewService(cfg, []storage.Disk{storage.NewMemDisk()})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewReal()
	loopback := func(to, tag int, data []byte) { world.Comm(to).SendOwned(to, tag, data) }
	if err := svc.Start([]mpi.Comm{world.Comm(cfg.ServerRank(0))}, loopback, clk); err != nil {
		t.Fatal(err)
	}
	info, err := svc.Attach(1, "t")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewSessionClient(cfg, world.Comm(info.Ranks[0]), clk, info.Ranks, 0, info.SeqBase)
	if err != nil {
		t.Fatal(err)
	}
	if want := info.SeqBase + 1<<sessionSeqBits; cl.seqEnd != want {
		t.Fatalf("window ends at %d, want %d", cl.seqEnd, want)
	}
	cl.opSeq = cl.seqEnd - 2 // as if 8,190 collectives had run

	specs := []ArraySpec{schedSpec("w", 1)}
	bufs := makeBufs(cl, specs, true)
	for _, suffix := range []string{".a", ".b"} {
		if err := cl.WriteArrays(suffix, specs, bufs); err != nil {
			t.Fatalf("op inside the window: %v", err)
		}
	}
	sent := cl.Stats().MsgsSent
	t0 := time.Now()
	err = cl.WriteArrays(".c", specs, bufs)
	if !errors.Is(err, ErrSeqWindow) {
		t.Fatalf("op past the window: %v, want ErrSeqWindow", err)
	}
	if _, serr := cl.SubmitRead("", ".a", specs, bufs); !errors.Is(serr, ErrSeqWindow) {
		t.Fatalf("submit past the window: %v, want ErrSeqWindow", serr)
	}
	if d := time.Since(t0); d > cfg.OpTimeout/10 {
		t.Errorf("refusal took %v: it waited for something", d)
	}
	if got := cl.Stats().MsgsSent; got != sent {
		t.Errorf("the refused ops sent %d messages", got-sent)
	}
	cl.Shutdown()
	svc.Detach(info.ID)
	if err := svc.Drain(); err != nil {
		t.Fatal(err)
	}

	// A fixed-shape client's window is the whole tag space.
	fixed := NewClient(Config{NumClients: 1, NumServers: 1}, mpi.NewWorld(2).Comm(0), clk)
	fixed.opSeq = maxSeq
	one := []ArraySpec{schedSpec("f", 1)}
	if o, err := fixed.admit(opWrite, "", one, makeBufs(fixed, one, true), ""); err != nil || o.seq != maxSeq {
		t.Fatalf("admit at maxSeq = (%+v, %v)", o, err)
	}
	if _, err := fixed.admit(opWrite, "", one, makeBufs(fixed, one, true), ""); !errors.Is(err, ErrSeqWindow) {
		t.Fatalf("admit past maxSeq: %v, want ErrSeqWindow", err)
	}
}

// TestAttachPastSessionIDsIsTyped: the last session ID is issued, and
// the attach after it fails with ErrSeqWindow, typed — the session ID is
// the upper bits of the sequence space.
func TestAttachPastSessionIDsIsTyped(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 1 << 10, Service: true, Sched: SchedConfig{MaxInflight: 1}}
	svc, err := NewService(cfg, []storage.Disk{storage.NewMemDisk()})
	if err != nil {
		t.Fatal(err)
	}
	svc.nextSID = maxSessionID
	info, err := svc.Attach(1, "t")
	if err != nil || info.ID != maxSessionID {
		t.Fatalf("attach of the last session ID: %+v, %v", info, err)
	}
	svc.Detach(info.ID)
	if _, err := svc.Attach(1, "t"); !errors.Is(err, ErrSeqWindow) {
		t.Fatalf("attach past the last session ID: %v, want ErrSeqWindow", err)
	}
}

// TestClientRouterFrameIsolation drives the client router's classifier,
// the one screen between a frame and an operation's state now that the
// tag is the only operation ID: a frame for a finished op is rejected
// and counted, one for an op not yet submitted here is stashed and
// replayed when it is bound, anything off the tagToClient family is
// rejected, and none of them reaches another op's queue.
func TestClientRouterFrameIsolation(t *testing.T) {
	clk := clock.NewReal()
	comm := mpi.NewWorld(1).Comm(0)
	c := NewClient(schedCfg(1, 1, 2), comm, clk)
	r := &clientRouter{
		c:       c,
		frames:  newOpFrames(),
		appDone: queue.New[mpi.Message](clk),
		exited:  queue.New[struct{}](clk),
	}
	r.frames.retire(3, 0)
	live := queue.New[mpi.Message](clk)
	r.frames.bind(5, live)

	for _, tag := range []int{
		tagToClient(3), // finished op
		tagToClient(7), // submitted elsewhere, not yet here
		tagToServer(5), // a live op's seq on the wrong family
		tagDoneFor(5),
		7, // no protocol tag at all
		tagToClient(5),
		tagRouterStop,
	} {
		comm.Send(0, tag, []byte{msgSubData, byte(tag)})
	}
	r.run(asEndpoint(comm))

	if got := c.Stats().FramesRejected; got != 4 {
		t.Errorf("FramesRejected = %d, want 4 (finished op, two wrong families, bogus tag)", got)
	}
	got := live.Drain(nil)
	if len(got) != 1 || got[0].Tag != tagToClient(5) {
		t.Errorf("op 5's queue holds %v, want exactly its own frame", got)
	}
	if len(r.frames.stash[7]) != 1 {
		t.Fatalf("frame for the not-yet-submitted op 7 not stashed: %v", r.frames.stash)
	}
	late := queue.New[mpi.Message](clk)
	r.frames.bind(7, late)
	if replayed := late.Drain(nil); len(replayed) != 1 || replayed[0].Tag != tagToClient(7) || len(r.frames.stash) != 0 {
		t.Errorf("bind(7) replayed %v, stash left %v", replayed, r.frames.stash)
	}
}
