package core

import (
	"fmt"
	"sync"
	"time"

	"panda/internal/array"
	"panda/internal/bufpool"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/queue"
)

// A Panda client and a Panda server are two roles of one rank (PAPER.md
// §1.3): both exchange tagged messages, and each collective is one
// operation that both serve. node.go is what the two roles share — the
// per-rank plumbing (node), the frame table a router routes an
// operation's frames through (opFrames) and the pool of executors an
// operation runs on (execPool). Client and Server keep only their
// policy.

// node is one rank's identity and plumbing, embedded by Client and
// Server. Every message it sends or receives is counted into cnt, the
// block instrumentation points add to.
type node struct {
	cfg  Config
	comm endpoint
	clk  clock.Clock
	tr   obs.Track
	met  nodeMetrics
	cnt  *counters

	// ranks is the client group's membership, the world rank holding
	// each memory chunk (ranks[0] leads the group); nil means the fixed
	// deployment's identity, chunk i on client rank i. A client has it
	// from its session, a server from the request it is executing.
	ranks []int
}

// groupRank maps a client-group member index (memory chunk) to the
// world rank holding it; groupRank(0) is the group's leader, the rank a
// Complete goes to.
func (n *node) groupRank(i int) int {
	if n.ranks != nil {
		return n.ranks[i]
	}
	return i
}

// groupSize is the client group's size: the session's member count, the
// deployment's client count otherwise.
func (n *node) groupSize() int {
	if n.ranks != nil {
		return len(n.ranks)
	}
	return n.cfg.NumClients
}

func (n *node) send(to, tag int, data []byte) {
	n.countSend(len(data))
	n.comm.SendOwned(to, tag, data)
}

// sendVec ships hdr+payload as one message through the transport's
// scatter-gather path when it has one, flattening into a pooled frame
// otherwise, counting it exactly like send. hdr must come from bufpool
// and is recycled here; payload is borrowed only until the call
// returns.
func (n *node) sendVec(to, tag int, hdr, payload []byte) {
	n.countSend(len(hdr) + len(payload))
	if mpi.SendSegments(n.comm, to, tag, hdr, payload) {
		n.cnt[cFramesCoalesced].Add(1)
	}
	bufpool.Put(hdr)
}

// sendGathered sends piece d of operation seq, strided in src (a buffer
// holding srcR), to rank `to` on tag, gathering it once: straight into
// the receiver's posted receive when the transport can place it there
// (mpi.PlaceRoute), as sendPacked does otherwise. The message is counted
// exactly like send.
func (n *node) sendGathered(seq, to, tag int, d subData, src []byte, srcR array.Region, elemSize int) {
	pc := mpi.PlaceRoute(n.comm)
	if pc == nil {
		n.sendPacked(seq, to, tag, d, src, srcR, elemSize)
		return
	}
	size := int(d.Region.NumElems()) * elemSize
	hdr := encodeSubDataHeader(d, 0)
	r := pc.Reserve(to, tag, hdr, size)
	if r.Dst == nil {
		bufpool.Put(hdr)
		n.sendPacked(seq, to, tag, d, src, srcR, elemSize)
		return
	}
	t0 := n.met.packStart()
	array.CopyRegion(r.Dst, d.Region, src, srcR, d.Region, elemSize)
	n.met.packDone(t0)
	n.chargeGather(seq, size)
	n.countSend(len(hdr) + size)
	pc.Deliver(r, hdr)
}

// sendPacked sends piece d of operation seq, strided in src (a buffer
// holding srcR), to rank `to` on tag, gathered into its own frame
// (packedFrame).
func (n *node) sendPacked(seq, to, tag int, d subData, src []byte, srcR array.Region, elemSize int) {
	t0 := n.met.packStart()
	frame := packedFrame(d, src, srcR, elemSize)
	n.met.packDone(t0)
	n.chargeGather(seq, int(d.Region.NumElems())*elemSize)
	n.send(to, tag, frame)
}

// chargeGather accounts for a strided piece gathered straight to where
// it leaves from: its copy is reorganization (timed at CopyRate before
// the frame leaves), and the frame left without a copy made only to
// frame it.
func (n *node) chargeGather(seq, size int) {
	n.chargeReorg(seq, int64(size))
	n.cnt[cFramesCoalesced].Add(1)
}

// countSend counts one message of size bytes leaving this node: every
// sender — send, sendVec, a server's sendFile and Complete — counts here.
func (n *node) countSend(size int) {
	n.cnt[cMsgsSent].Add(1)
	n.cnt[cBytesSent].Add(int64(size))
}

func (n *node) countRecv(size int) {
	n.cnt[cMsgsRecv].Add(1)
	n.cnt[cBytesRecv].Add(int64(size))
}

// recv receives one in-operation frame on tag from anyone, waiting
// until deadline (0: unbounded). The wait is timed into recv_wait_ns and
// the frame counted.
func (n *node) recv(tag int, deadline time.Duration) (mpi.Message, error) {
	var w0 time.Duration
	if n.met.recvWait != nil {
		w0 = n.clk.Now()
	}
	m, err := recvBounded(n.comm, n.clk, mpi.AnySource, tag, deadline)
	if err != nil {
		return mpi.Message{}, err
	}
	if n.met.recvWait != nil {
		n.met.recvWait.Observe(int64(n.clk.Now() - w0))
	}
	n.countRecv(len(m.Data) + m.Placed)
	return m, nil
}

// reject drops a frame no operation may have — stale, duplicate or
// misdirected traffic — counting and recycling it.
func (n *node) reject(frame []byte) {
	n.cnt[cFramesRejected].Add(1)
	bufpool.Put(frame)
}

// chargeContig accounts for n bytes moved through a contiguous fast
// path — the complement of chargeReorg, so the contiguous-vs-strided
// split of every byte moved is visible in metrics.
func (n *node) chargeContig(size int64) {
	n.cnt[cContigBytes].Add(size)
}

// chargeReorg accounts for a strided copy of size bytes during
// operation seq, sleeping its CopyRate cost.
func (n *node) chargeReorg(seq int, size int64) {
	n.cnt[cReorgBytes].Add(size)
	if n.cfg.CopyRate > 0 {
		t0 := n.clk.Now()
		n.clk.Sleep(copyCost(size, n.cfg.CopyRate))
		n.tr.Span(obs.CatReorg, "reorg copy", seq, t0, n.clk.Now(), size)
	}
}

// copyCost converts a byte count at a copy rate into time.
func copyCost(n int64, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * float64(time.Second))
}

// retiredBound bounds a router's retired-op set: a resident service
// retires ops forever, and session sequence bases are monotonic (never
// reused), so forgetting ancient seqs cannot admit a replay of a live
// one.
const retiredBound = 1 << 17

// opFrames is a router's frame table: the mailbox each running
// operation reads its frames from, the stash of frames for operations
// coming but not yet bound to a mailbox, and the operations retired.
// The tag is the operation ID, so the table is keyed by sequence
// number. Safe for concurrent use: a client's application binds while
// its router delivers.
type opFrames struct {
	mu    sync.Mutex
	boxes map[int]*queue.Q[mpi.Message]
	stash map[int][]mpi.Message
	spare [][]mpi.Message // replayed stashes, emptied, for the next op that needs one
	done  map[int]uint16  // retired seqs, with the attempt that ran
}

func newOpFrames() *opFrames {
	return &opFrames{
		boxes: make(map[int]*queue.Q[mpi.Message]),
		stash: make(map[int][]mpi.Message),
		done:  make(map[int]uint16),
	}
}

// deliver hands m, a frame of operation seq, to the op's mailbox, or
// stashes it when the op is coming — the router's policy says what that
// means. It reports false when no op owns the frame: the caller rejects
// it, so it can never reach another op's state.
func (f *opFrames) deliver(seq int, m mpi.Message, coming bool) bool {
	f.mu.Lock()
	box := f.boxes[seq]
	if box == nil && coming {
		st, ok := f.stash[seq]
		if n := len(f.spare); !ok && n > 0 {
			st, f.spare = f.spare[n-1], f.spare[:n-1]
		}
		f.stash[seq] = append(st, m)
	}
	f.mu.Unlock()
	if box != nil {
		box.Put(m)
	}
	return box != nil || coming
}

// bind makes box operation seq's mailbox: frames the box's last
// operation left behind are nobody's and recycled, then the frames that
// raced ahead of the op are replayed into it.
func (f *opFrames) bind(seq int, box *queue.Q[mpi.Message]) {
	for _, m := range box.Drain(nil) {
		bufpool.Put(m.Data)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.boxes[seq] = box
	if st, ok := f.stash[seq]; ok {
		for _, m := range st {
			box.Put(m)
		}
		delete(f.stash, seq)
		clear(st)
		f.spare = append(f.spare, st[:0])
	}
}

// retire unbinds operation seq and records the attempt that ran: from
// here on its late frames are rejected, not stashed forever.
func (f *opFrames) retire(seq int, attempt uint16) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.boxes, seq)
	if len(f.done) >= retiredBound {
		f.done = make(map[int]uint16)
	}
	f.done[seq] = attempt
	for _, m := range f.stash[seq] {
		bufpool.Put(m.Data)
	}
	delete(f.stash, seq)
}

// retired reports whether operation seq has retired, and which attempt
// of it ran.
func (f *opFrames) retired(seq int) (attempt uint16, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	attempt, ok = f.done[seq]
	return attempt, ok
}

// wake wakes whoever waits on a bound mailbox, to find the link gone.
func (f *opFrames) wake() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, box := range f.boxes {
		box.Wake()
	}
}

// executor is one activity of a node's executor pool. It runs the
// operations handed to it on jobs one at a time, each reading its frames
// from box, and outlives them: a dispatch allocates nothing.
type executor[J comparable] struct {
	jobs *queue.Q[J]           // a zero J ends the activity
	box  *queue.Q[mpi.Message] // the operation in hand's frames, filled by the router
	done *queue.Q[J]           // operations run, for a caller that awaits them (the client's application)
}

// execPool is a node's executors. take returns an idle one, starting
// another activity only when every one made is busy; give takes one
// back; stop ends them all once they finish what they run. body, the
// role's activity, is set once when the pool is built: a method value
// passed on every take would allocate each time it is evaluated.
type execPool[J comparable] struct {
	clk   clock.Clock
	name  string // activities are <name>-exec<k>
	body  func(clk clock.Clock, e *executor[J])
	execs []*executor[J]
	idle  []*executor[J]
}

func (p *execPool[J]) take() *executor[J] {
	if n := len(p.idle); n > 0 {
		e := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return e
	}
	e := &executor[J]{jobs: queue.New[J](p.clk), box: queue.New[mpi.Message](p.clk), done: queue.New[J](p.clk)}
	p.execs = append(p.execs, e)
	p.clk.Go(fmt.Sprintf("%s-exec%d", p.name, len(p.execs)-1), func(clk clock.Clock) { p.body(clk, e) })
	return e
}

func (p *execPool[J]) give(e *executor[J]) { p.idle = append(p.idle, e) }

func (p *execPool[J]) stop() {
	var end J
	for _, e := range p.execs {
		e.jobs.Put(end)
	}
	p.execs, p.idle = nil, nil
}
