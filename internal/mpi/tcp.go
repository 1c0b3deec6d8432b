package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"panda/internal/bufpool"
)

// TCP transport: the paper closes by noting Panda "will be able to run
// on a network of ordinary workstations without changing any code";
// this transport makes that literal. A Hub process accepts connections
// and routes frames between the ranks they register as, so each node
// needs exactly one outbound TCP connection and no listener of its own
// — the simplest thing that works across workstations behind the usual
// 1995-grade networking. The hub has one accept loop (Serve), whatever
// runs on it: a fixed world whose ranks all attach before any sends, or
// pandad, whose session members, remote I/O nodes and migrations come
// and go.
//
// Handshake (all big-endian); data frames are frame.go's:
//
//	hello:  u32 magic | u32 rank | u32 size
//	ack:    u32 magic                       (hub → rank, once registered)
//
// The hub acknowledges a hello only after it has recorded the
// connection, and DialComm returns only after reading the ack: a frame
// sent to a rank whose DialComm has returned is never dropped for want
// of a registration. A hello with a foreign magic or world size, an
// out-of-range rank, or a rank another endpoint holds gets no ack: that
// connection is closed and the hub serves on. A hello that opens with
// the session magic instead hands the connection to the session handler
// (HandleSessions).
//
// A wire tag of zero (impossible for data, whose tags are stored +1)
// marks a control frame. When a rank's connection drops, the hub
// broadcasts `u32 to | u32 deadRank | u32 0 | u32 0` (no payload) to
// every surviving rank, whose endpoint records the death so bounded
// receives can fail fast with ErrPeerLost instead of waiting out their
// timeout. A control frame with a one-byte payload of 1 is the inverse
// — a revival: the hub broadcasts it when a freed rank is re-registered
// by a new endpoint, clearing the stale death mark on every surviving
// endpoint. Endpoints read control payloads by the length field.
//
// Sends are reliable and ordered per (source, destination) pair,
// matching the in-process transports. A frame for a rank that is absent,
// dead or outside the world is dropped; its sender learns of an absence
// by the death announcement.
//
// Ranks that live in the hub's own process do not dial it: Hub.Local
// attaches them as in-process endpoints (local.go). A frame the hub
// reads for a local rank moves into that rank's mailbox as the pooled
// buffer it was read into — no copy, no second socket; a local rank's
// send to a dialed rank is one writev onto that rank's socket, and a
// file range it sends (FileComm) one writev of the headers and a
// sendfile from the page cache onto that socket; local to local is one
// pooled copy, and a file range one ReadAt into a pooled frame. Deaths
// and revivals reach local endpoints as direct marks on their dead-peer
// sets, and a rank is held by one endpoint of either kind at a time. The
// wire format is unchanged and dialed peers cannot tell which kind of
// endpoint they talk to.
//
// A local mailbox is unbounded, where a dialed rank's socket buffer
// pushed back on the sender. Panda does not need the push-back: writes
// are pulled, so the data frames in a server's mailbox are the
// sub-chunks it has asked for and not yet consumed (bounded by its
// pipeline depth), and everything else is control traffic of a few
// hundred bytes per operation. Reads leave through the client's socket
// — a natural read's file ranges by sendfile, everything else by writev
// — and a slow client blocks the serving rank in that socket write,
// waiting on the poller, exactly as it blocked the relay before. A
// dialed client that posted its reads (PostReceives) reads a natural
// piece's payload from its socket straight into the application's array.

const tcpMagic = 0x50414e44 // "PAND"

// sessionMagic opens a session-control connection on a hub: a
// non-rank conn carrying an out-of-band dialog (the pandad attach/open
// protocol) instead of mesh frames. Hello layout matches the rank
// hello: u32 magic | u32 version | u32 reserved.
const sessionMagic = 0x50534553 // "PSES"

// SessionHello writes the session-control hello on conn, marking it as
// an out-of-band dialog connection rather than a mesh rank.
func SessionHello(conn net.Conn) error {
	var hello [12]byte
	binary.BigEndian.PutUint32(hello[0:], sessionMagic)
	binary.BigEndian.PutUint32(hello[4:], 1) // version
	_, err := conn.Write(hello[:])
	return err
}

// tagControlWire is the on-wire tag value (tag field zero) reserved for
// hub control frames.
const tagControlWire = 0

// Hub routes messages among the ranks of one TCP world. Create with
// ListenHub, then call Serve.
type Hub struct {
	ln        net.Listener
	size      int
	onSession func(net.Conn) // HandleSessions; nil closes session conns
	mu        sync.Mutex
	open      map[net.Conn]bool  // every accepted conn until its handler returns
	conns     map[int]net.Conn   // dialed ranks
	locals    map[int]*localComm // in-process ranks (Local)
	dead      map[int]bool
	out       []frameWriter // per-rank socket write state
	closed    bool          // Close was called; accept-loop exit is orderly
}

// ListenHub starts a hub for a world of the given size on addr (e.g.
// "127.0.0.1:0"). Use Addr to learn the bound address.
func ListenHub(addr string, size int) (*Hub, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Hub{
		ln: ln, size: size, open: make(map[net.Conn]bool),
		conns: make(map[int]net.Conn), locals: make(map[int]*localComm),
		dead: make(map[int]bool), out: make([]frameWriter, size),
	}, nil
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// HandleSessions hands every connection that opens with the session
// hello to fn, on that connection's own goroutine, for an out-of-band
// dialog (the pandad attach/open protocol); the hub closes the
// connection once fn returns, or at Close. Call it before Serve.
func (h *Hub) HandleSessions(fn func(net.Conn)) { h.onSession = fn }

// Serve accepts connections until Close. Ranks join and leave at will:
// a departing rank is announced dead, and a later connection (or Local)
// may take its slot, which broadcasts a revival clearing the stale
// death mark. Frames addressed to an absent rank are dropped. The hub
// owns every connection it accepts until that connection's handler
// returns, so Close severs them all — one that never sends its hello
// included. Serve returns nil after Close, or the accept error
// otherwise, once every handler has returned.
func (h *Hub) Serve() error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := h.ln.Accept()
		h.mu.Lock()
		closed := h.closed
		if err == nil && !closed {
			h.open[conn] = true
		}
		h.mu.Unlock()
		if err != nil {
			if closed {
				return nil
			}
			return err
		}
		if closed {
			conn.Close()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.serveConn(conn)
			h.mu.Lock()
			delete(h.open, conn)
			h.mu.Unlock()
			conn.Close()
		}()
	}
}

// serveConn reads one connection's hello and runs it: a session dialog,
// or a rank routed until it disconnects. Anything else — a bad magic, a
// foreign world size, an out-of-range or duplicate rank — is refused
// without an ack; the caller closes the connection.
func (h *Hub) serveConn(conn net.Conn) {
	var buf [12]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return
	}
	switch binary.BigEndian.Uint32(buf[0:]) {
	case sessionMagic:
		if h.onSession != nil {
			h.onSession(conn)
		}
		return
	case tcpMagic:
	default:
		return
	}
	rank := int(binary.BigEndian.Uint32(buf[4:]))
	size := int(binary.BigEndian.Uint32(buf[8:]))
	if size != h.size || rank < 0 || rank >= h.size {
		return
	}
	revived, err := h.register(rank, conn, nil)
	if err != nil {
		return
	}
	if revived {
		h.announceRevival(rank)
	}
	h.route(rank, conn)
	h.announceDeath(rank)
	h.mu.Lock()
	if h.conns[rank] == conn {
		delete(h.conns, rank)
	}
	h.mu.Unlock()
}

// register makes conn (a dialed rank, acknowledged here) or l (a local
// one) the holder of rank, and reports whether the rank had been
// announced dead — the caller then owes the survivors a revival. A rank
// is held by one endpoint at a time. A dialed holder gets a moment to
// finish disconnecting (a freed rank can be re-issued while its old
// connection's FIN is still in flight); a local holder detaches
// synchronously, so finding one is a true duplicate and is refused at
// once. The rank's write lock is held from registration through the
// ack, so no routed frame can reach a new connection ahead of it.
func (h *Hub) register(rank int, conn net.Conn, l *localComm) (revived bool, err error) {
	for attempt := 0; ; attempt++ {
		h.out[rank].mu.Lock()
		h.mu.Lock()
		_, dialed := h.conns[rank]
		switch {
		case h.closed:
			err = fmt.Errorf("mpi: hub closed")
		case h.locals[rank] != nil, dialed && attempt > 100: // ~2 s: the predecessor is wedged
			err = fmt.Errorf("mpi: duplicate rank %d", rank)
		case !dialed:
			revived = h.dead[rank]
			delete(h.dead, rank)
			if l != nil {
				h.locals[rank] = l
			} else {
				h.conns[rank] = conn
			}
		}
		h.mu.Unlock()
		if err == nil && !dialed && conn != nil {
			writeAck(conn) //nolint:errcheck // a broken conn fails its first routed read
		}
		h.out[rank].mu.Unlock()
		if err != nil || !dialed {
			return revived, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Local attaches rank as an in-process endpoint: for ranks that live in
// the hub's own process, which by dialing it would cross two loopback
// sockets for every byte they exchange with a dialed peer. The endpoint
// behaves as a DialComm one does (DeadlineComm, VectorComm and
// PeerChecker included; CloseComm detaches it and announces the rank
// dead). It may be attached before Serve is running. A frame for a rank
// that has not attached is dropped, so a fixed world attaches every
// rank before any of them sends.
func (h *Hub) Local(rank int) (Comm, error) {
	if rank < 0 || rank >= h.size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, h.size)
	}
	l := &localComm{Endpoint: newEndpoint(rank, h.size), hub: h}
	revived, err := h.register(rank, nil, l)
	if err != nil {
		return nil, err
	}
	if revived {
		h.announceRevival(rank)
	}
	return l, nil
}

// Inject delivers a frame to rank `to` as if sent by `to` itself — the
// service daemon's control path for shutdown and reconfigure frames,
// which by protocol are loopback-safe (the receiver only looks at the
// payload). A frame for a rank that is not attached is dropped.
func (h *Hub) Inject(to, tag int, data []byte) {
	if to >= 0 && to < h.size {
		h.deliver(to, to, uint32(tag)+1, data, nil, false)
	}
}

// Close shuts the hub down: the listener closes (ending Serve's accept
// loop), every accepted connection is severed — rank, session, or one
// still owing its hello — and every local endpoint's receives fail as a
// dialed endpoint's do when its connection drops.
func (h *Hub) Close() error {
	h.mu.Lock()
	h.closed = true
	conns := make([]net.Conn, 0, len(h.open))
	for c := range h.open {
		conns = append(conns, c)
	}
	locals := make([]*localComm, 0, len(h.locals))
	for _, l := range h.locals {
		locals = append(locals, l)
	}
	h.mu.Unlock()
	err := h.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, l := range locals {
		l.failReads(errDetached)
	}
	return err
}

// writeAck tells a freshly recorded rank connection that the hub will
// now route to it.
func writeAck(conn net.Conn) error {
	var ack [4]byte
	binary.BigEndian.PutUint32(ack[:], tcpMagic)
	_, err := conn.Write(ack[:])
	return err
}

// announceDeath marks a rank dead and tells every surviving rank.
func (h *Hub) announceDeath(rank int) { h.announce(rank, false) }

// announceRevival tells every surviving rank that a freed rank is back
// (its registration already cleared the death mark here).
func (h *Hub) announceRevival(rank int) { h.announce(rank, true) }

// announce tells every other live rank about rank: a death (recorded
// here first, announced once) or a revival. Dialed ranks get a hub
// control frame — payload-less for a death, payload {1} for a revival;
// local endpoints have their dead-peer set marked directly. Write
// failures are ignored: a survivor that is itself dying needs no
// notification.
func (h *Hub) announce(rank int, revival bool) {
	h.mu.Lock()
	if !revival {
		if h.dead[rank] {
			h.mu.Unlock()
			return
		}
		h.dead[rank] = true
	}
	type target struct {
		rank int
		conn net.Conn
	}
	var targets []target
	for r, c := range h.conns {
		if r != rank && !h.dead[r] {
			targets = append(targets, target{r, c})
		}
	}
	var locals []*localComm
	for r, l := range h.locals {
		if r != rank && !h.dead[r] {
			locals = append(locals, l)
		}
	}
	h.mu.Unlock()

	for _, l := range locals {
		l.markPeer(rank, revival)
	}
	var payload []byte
	if revival {
		payload = []byte{1}
	}
	for _, t := range targets {
		h.out[t.rank].write(t.conn, t.rank, rank, tagControlWire, payload, nil) //nolint:errcheck // best effort
	}
}

// fate is what deliver did with a frame.
type fate int

const (
	dropped fate = iota // the destination is absent or dead
	written             // one writev onto the destination's socket
	queued              // parked in a local endpoint's mailbox
)

// deliver hands rank `to` (in range) one frame from source with payload
// a|b. Every sender ends here: a route goroutine relaying off a socket,
// a local endpoint, Inject. A dialed destination gets one writev. A
// local destination gets a itself when owned (b is nil then) — a frame
// read off a socket moves into the mailbox as the pooled buffer it was
// read into — and one pooled copy otherwise, because a mailbox parks
// messages indefinitely and a|b is only borrowed. The caller keeps a
// unless the frame was queued with owned set. Frames for an absent or
// dead rank are dropped; the sender learns via the death announcement.
func (h *Hub) deliver(source, to int, wireTag uint32, a, b []byte, owned bool) fate {
	l, dst, gone := h.holder(to)
	switch {
	case gone:
	case l != nil:
		if !owned {
			frame := bufpool.GetRaw(len(a) + len(b))
			copy(frame, a)
			copy(frame[len(a):], b)
			a = frame
		}
		l.accept(source, wireTag, a)
		return queued
	case dst != nil:
		if h.out[to].write(dst, to, source, wireTag, a, b) == nil {
			return written
		}
		// The destination's connection broke mid-write: treat it as
		// dead rather than failing the whole hub, so the remaining
		// ranks keep communicating and learn of the loss.
		h.announceDeath(to)
	}
	return dropped
}

// Sever closes the connection of the dialed endpoint holding rank, if
// one does: its route ends, the rank is announced dead and freed, and a
// new endpoint can register it at once. For a holder that is silent
// with its socket open — stopped or wedged — which the hub cannot tell
// from a quiet one; its owner's liveness (a lease) can.
func (h *Hub) Sever(rank int) {
	if _, conn, _ := h.holder(rank); conn != nil {
		conn.Close()
	}
}

// holder is who holds rank `to`: a local endpoint, a dialed
// connection, or neither — and whether the rank was announced dead.
func (h *Hub) holder(to int) (*localComm, net.Conn, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.locals[to], h.conns[to], h.dead[to]
}

// deliverFile is deliver for a local endpoint's file frame: hdr followed
// by n bytes of f from off. A dialed destination gets the headers in one
// writev and the range by sendfile (frameWriter.writeFile); a local one
// gets one ReadAt into a pooled frame, which its mailbox owns. It
// reports whether the range went by sendfile, and the file's error — the
// frame went out whole regardless. A frame for an absent or dead rank is
// dropped unread.
func (h *Hub) deliverFile(source, to int, wireTag uint32, hdr []byte, f *os.File, off int64, n int) (bool, error) {
	l, dst, gone := h.holder(to)
	switch {
	case gone:
	case l != nil:
		frame, err := fileFrame(hdr, f, off, n)
		l.accept(source, wireTag, frame)
		return false, err
	case dst != nil:
		zc, fileErr, linkErr := h.out[to].writeFile(dst, to, source, wireTag, hdr, f, off, n)
		if linkErr != nil {
			h.announceDeath(to) // as deliver does: the destination, not the hub, is lost
		}
		return zc, fileErr
	}
	return false, nil
}

// route forwards frames from one source connection until it disconnects
// or breaks the protocol; either way only that connection ends. Frames
// are relayed as coming from the rank the connection registered as,
// whatever their header's source field says, and a frame for a rank
// outside the world is dropped.
func (h *Hub) route(source int, conn net.Conn) {
	fr := newFrameReader(conn)
	for {
		to, _, wireTag, payload, err := fr.next()
		if err != nil {
			return
		}
		// payload is recycled unless a local rank takes it
		if to < 0 || to >= h.size || h.deliver(source, to, wireTag, payload, nil, true) != queued {
			bufpool.Put(payload)
		}
	}
}

// tcpComm is one rank's dialed endpoint of a TCP world.
type tcpComm struct {
	Endpoint
	conn net.Conn
	in   *frameReader
	out  frameWriter
}

// DialComm connects rank to the hub at addr in a world of the given
// size, returning once the hub has acknowledged the registration, so
// frames sent to the rank from then on reach it. Close the underlying
// connection by calling CloseComm when done.
func DialComm(addr string, rank, size int) (Comm, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, size)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var hello [12]byte
	binary.BigEndian.PutUint32(hello[0:], tcpMagic)
	binary.BigEndian.PutUint32(hello[4:], uint32(rank))
	binary.BigEndian.PutUint32(hello[8:], uint32(size))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil || binary.BigEndian.Uint32(ack[:]) != tcpMagic {
		conn.Close()
		return nil, fmt.Errorf("mpi: hub refused rank %d: %v", rank, err)
	}
	c := &tcpComm{Endpoint: newEndpoint(rank, size), conn: conn, in: newFrameReader(conn)}
	go c.reader()
	return c, nil
}

// CloseComm tears down a hub endpoint: a DialComm one closes its
// connection, a Hub.Local one detaches. Either way the hub announces
// the rank dead and frees it. Pending receives fail by panicking on
// connection loss, so close only after all communication is complete.
func CloseComm(c Comm) error {
	switch e := c.(type) {
	case *tcpComm:
		return e.conn.Close()
	case *localComm:
		e.detach()
		return nil
	}
	return fmt.Errorf("mpi: not a hub endpoint")
}

// post makes p the reader's placement hook (PostReceives).
func (c *tcpComm) post(p Placer) { c.in.place.Store(&p) }

func (c *tcpComm) reader() {
	for {
		_, source, wireTag, payload, err := c.in.next()
		if err != nil {
			c.failReads(err)
			return
		}
		if c.in.placed > 0 {
			c.box.Put(Message{Source: source, Tag: int(wireTag) - 1, Data: payload, Placed: c.in.placed})
			continue
		}
		c.accept(source, wireTag, payload)
	}
}

// emit writes one frame, a|b, to the hub. A failed write drops the
// frame, marks the link down exactly as a failed read marks it, and
// closes the connection so a half-written frame can never be followed
// by more bytes. The sender learns of the loss the way it learns of any
// other — its bounded receives fail with ErrPeerLost.
func (c *tcpComm) emit(to, tag int, a, b []byte) {
	checkFrame(c, to, tag, len(a)+len(b))
	if err := c.out.write(c.conn, to, c.rank, uint32(tag)+1, a, b); err != nil {
		c.sendFailed(err)
	}
}

func (c *tcpComm) sendFailed(err error) {
	c.failReads(fmt.Errorf("send: %w", err))
	c.conn.Close()
}

// SendFile implements FileComm: the wire header and hdr in one writev,
// then the range by sendfile onto the hub socket. A failed socket write
// takes the link down as emit's does.
func (c *tcpComm) SendFile(to, tag int, hdr []byte, f *os.File, off int64, n int) (bool, error) {
	checkFrame(c, to, tag, len(hdr)+n)
	zc, fileErr, linkErr := c.out.writeFile(c.conn, to, c.rank, uint32(tag)+1, hdr, f, off, n)
	if linkErr != nil {
		c.sendFailed(linkErr)
	}
	return zc, fileErr
}

func (c *tcpComm) Send(to, tag int, data []byte) { c.emit(to, tag, data, nil) }

func (c *tcpComm) SendOwned(to, tag int, data []byte) { c.emit(to, tag, data, nil) }

// SendVec implements VectorComm: the wire header, protocol header and
// payload go out in one writev, so the payload is read straight from
// the caller's buffer by the kernel — no intermediate frame. The write
// completes before SendVec returns, honoring the borrow contract.
func (c *tcpComm) SendVec(to, tag int, hdr, payload []byte) bool {
	c.emit(to, tag, hdr, payload)
	return true
}

func (c *tcpComm) Isend(to, tag int, data []byte) Request {
	c.Send(to, tag, data)
	return doneRequest{}
}
