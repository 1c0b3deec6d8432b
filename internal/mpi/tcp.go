package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"panda/internal/bufpool"
)

// TCP transport: the paper closes by noting Panda "will be able to run
// on a network of ordinary workstations without changing any code";
// this transport makes that literal. A Hub process accepts one
// connection per rank and routes frames between them, so each node
// needs exactly one outbound TCP connection and no listener of its own
// — the simplest thing that works across workstations behind the usual
// 1995-grade networking.
//
// Frame format (all big-endian):
//
//	hello:  u32 magic | u32 rank | u32 size
//	ack:    u32 magic                       (hub → rank, once registered)
//	data:   u32 to    | u32 source | u32 tag+1 | u32 len | payload
//
// The hub acknowledges a hello only after it has recorded the
// connection, and DialComm returns only after reading the ack: a frame
// sent to a rank whose DialComm has returned is never dropped for want
// of a registration.
//
// A wire tag of zero (impossible for data, whose tags are stored +1)
// marks a control frame. When a rank's connection drops, the hub
// broadcasts `u32 to | u32 deadRank | u32 0 | u32 0` (no payload) to
// every surviving rank, whose endpoint records the death so bounded
// receives can fail fast with ErrPeerLost instead of waiting out their
// timeout. A control frame with a one-byte payload of 1 is the inverse
// — a revival: a dynamic hub (ServeDynamic) broadcasts it when a freed
// rank is re-registered by a new connection, clearing the stale death
// mark on every surviving endpoint. Endpoints read control payloads by
// the length field, so the two frames coexist with old hubs that only
// ever send the zero-length death form.
//
// The hub validates that every hello agrees on the world size and that
// ranks are unique. Sends are reliable and ordered per (source,
// destination) pair, matching the in-process transports.

const tcpMagic = 0x50414e44 // "PAND"

// sessionMagic opens a session-control connection on a dynamic hub: a
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
	ln      net.Listener
	size    int
	mu      sync.Mutex
	conns   map[int]net.Conn
	dead    map[int]bool
	wmu     []sync.Mutex // per-rank write locks
	dynamic bool         // ServeDynamic mode: ranks come and go
	closed  bool         // Close was called; accept-loop exit is orderly
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
	return &Hub{ln: ln, size: size, conns: make(map[int]net.Conn), dead: make(map[int]bool), wmu: make([]sync.Mutex, size)}, nil
}

// Addr returns the hub's listen address.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Serve accepts all ranks, then routes frames until every connection
// closes. It returns the first routing error, or nil on orderly
// shutdown (all ranks disconnected).
func (h *Hub) Serve() error {
	defer h.ln.Close()
	// Accept phase: exactly size ranks.
	for joined := 0; joined < h.size; joined++ {
		conn, err := h.ln.Accept()
		if err != nil {
			return err
		}
		rank, err := h.handshake(conn)
		if err != nil {
			conn.Close()
			return err
		}
		h.mu.Lock()
		if _, dup := h.conns[rank]; dup {
			h.mu.Unlock()
			conn.Close()
			return fmt.Errorf("mpi: duplicate rank %d", rank)
		}
		h.conns[rank] = conn
		h.mu.Unlock()
		if err := writeAck(conn); err != nil {
			return err
		}
	}
	// Route phase: one goroutine per source. When a source's connection
	// ends — orderly or not — the survivors are told so their pending
	// receives from that rank can fail fast.
	errs := make(chan error, h.size)
	var wg sync.WaitGroup
	for rank, conn := range h.conns {
		wg.Add(1)
		go func(rank int, conn net.Conn) {
			defer wg.Done()
			err := h.route(rank, conn)
			h.announceDeath(rank)
			errs <- err
		}(rank, conn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ServeDynamic runs the hub in service mode: instead of waiting for
// exactly size ranks and tearing down when they disconnect, the hub
// accepts connections forever (until Close). Rank connections join and
// leave the mesh at will — a departing rank is announced dead as usual,
// but its slot can be re-registered by a later connection, which
// broadcasts a revival clearing the stale death mark. Frames addressed
// to an absent rank are dropped, not fatal. Connections opening with
// the session magic are handed to onSession (one goroutine each) for
// out-of-band dialog; the callback owns the conn. ServeDynamic returns
// nil after Close, or the accept error otherwise.
func (h *Hub) ServeDynamic(onSession func(net.Conn)) error {
	h.mu.Lock()
	h.dynamic = true
	h.mu.Unlock()
	var wg sync.WaitGroup
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			wg.Wait()
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			h.serveDynConn(conn, onSession)
		}(conn)
	}
}

// serveDynConn handshakes and runs one dynamic-mode connection.
func (h *Hub) serveDynConn(conn net.Conn, onSession func(net.Conn)) {
	var buf [12]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		conn.Close()
		return
	}
	switch binary.BigEndian.Uint32(buf[0:]) {
	case sessionMagic:
		if onSession == nil {
			conn.Close()
			return
		}
		onSession(conn)
		return
	case tcpMagic:
		// fall through to rank registration
	default:
		conn.Close()
		return
	}
	rank := int(binary.BigEndian.Uint32(buf[4:]))
	size := int(binary.BigEndian.Uint32(buf[8:]))
	if size != h.size || rank < 0 || rank >= h.size {
		conn.Close()
		return
	}
	// Register, waiting briefly for a live predecessor on the same rank
	// to finish disconnecting (a freed rank can be re-issued while its
	// old connection's FIN is still in flight). The rank's write lock is
	// held from registration through the ack, so no routed frame can
	// reach the new connection ahead of it.
	revived := false
	for attempt := 0; ; attempt++ {
		h.wmu[rank].Lock()
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			h.wmu[rank].Unlock()
			conn.Close()
			return
		}
		if _, live := h.conns[rank]; !live {
			revived = h.dead[rank]
			delete(h.dead, rank)
			h.conns[rank] = conn
			h.mu.Unlock()
			writeAck(conn) //nolint:errcheck // a broken conn fails its first routed read
			h.wmu[rank].Unlock()
			break
		}
		h.mu.Unlock()
		h.wmu[rank].Unlock()
		if attempt > 100 { // ~2 s: the predecessor is wedged, refuse
			conn.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	if revived {
		h.announceRevival(rank)
	}
	h.route(rank, conn) //nolint:errcheck // a broken dynamic conn only kills itself
	h.announceDeath(rank)
	h.mu.Lock()
	if h.conns[rank] == conn {
		delete(h.conns, rank)
	}
	h.mu.Unlock()
	conn.Close()
}

// Inject delivers a frame to rank `to` as if sent by `to` itself — the
// service daemon's control path for shutdown and reconfigure frames,
// which by protocol are loopback-safe (the receiver only looks at the
// payload). Returns false when the rank is not connected.
func (h *Hub) Inject(to, tag int, data []byte) bool {
	if to < 0 || to >= h.size {
		return false
	}
	h.mu.Lock()
	dst := h.conns[to]
	gone := h.dead[to]
	h.mu.Unlock()
	if dst == nil || gone {
		return false
	}
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(to))
	binary.BigEndian.PutUint32(hdr[4:], uint32(to))
	binary.BigEndian.PutUint32(hdr[8:], uint32(tag)+1)
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(data)))
	h.wmu[to].Lock()
	defer h.wmu[to].Unlock()
	bufs := net.Buffers{hdr[:], data}
	_, err := bufs.WriteTo(dst)
	return err == nil
}

// Close shuts the hub down: the listener closes (ending ServeDynamic's
// accept loop) and every connection is torn down.
func (h *Hub) Close() error {
	h.mu.Lock()
	h.closed = true
	conns := make([]net.Conn, 0, len(h.conns))
	for _, c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	err := h.ln.Close()
	for _, c := range conns {
		c.Close()
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

func (h *Hub) handshake(conn net.Conn) (int, error) {
	var buf [12]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return 0, fmt.Errorf("mpi: hub handshake: %w", err)
	}
	if binary.BigEndian.Uint32(buf[0:]) != tcpMagic {
		return 0, fmt.Errorf("mpi: hub handshake: bad magic")
	}
	rank := int(binary.BigEndian.Uint32(buf[4:]))
	size := int(binary.BigEndian.Uint32(buf[8:]))
	if size != h.size {
		return 0, fmt.Errorf("mpi: rank %d joined with world size %d, hub expects %d", rank, size, h.size)
	}
	if rank < 0 || rank >= h.size {
		return 0, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, h.size)
	}
	return rank, nil
}

// announceDeath marks a rank dead and tells every surviving rank.
func (h *Hub) announceDeath(rank int) { h.announce(rank, false) }

// announceRevival tells every surviving rank that a freed rank is back
// (its registration already cleared the death mark here).
func (h *Hub) announceRevival(rank int) { h.announce(rank, true) }

// announce broadcasts a hub control frame about rank to every other
// live rank: payload-less for a death (recorded here first, announced
// once), payload {1} for a revival. Write failures are ignored: a
// survivor that is itself dying needs no notification.
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
	h.mu.Unlock()

	frame := make([]byte, 16, 17)
	binary.BigEndian.PutUint32(frame[4:], uint32(rank))
	binary.BigEndian.PutUint32(frame[8:], tagControlWire)
	if revival {
		binary.BigEndian.PutUint32(frame[12:], 1)
		frame = append(frame, 1)
	}
	for _, t := range targets {
		binary.BigEndian.PutUint32(frame[0:], uint32(t.rank))
		h.wmu[t.rank].Lock()
		t.conn.Write(frame) //nolint:errcheck // best effort
		h.wmu[t.rank].Unlock()
	}
}

// isDisconnect reports whether a read error means the peer went away
// rather than misbehaved: a clean EOF, or the reset the kernel sends for
// a peer that closed with unread frames (death announcements, typically)
// still in its socket buffer.
func isDisconnect(err error) bool {
	return err == io.EOF || errors.Is(err, syscall.ECONNRESET)
}

// route forwards frames from one source connection until it disconnects.
func (h *Hub) route(source int, conn net.Conn) error {
	r := bufio.NewReaderSize(conn, 256<<10)
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if isDisconnect(err) {
				return nil
			}
			return fmt.Errorf("mpi: hub route from %d: %w", source, err)
		}
		to := int(binary.BigEndian.Uint32(hdr[0:]))
		n := int(binary.BigEndian.Uint32(hdr[12:]))
		payload := bufpool.GetRaw(n) // fully overwritten by ReadFull; recycled after relay
		if _, err := io.ReadFull(r, payload); err != nil {
			bufpool.Put(payload)
			if isDisconnect(err) {
				return nil
			}
			return fmt.Errorf("mpi: hub route from %d: %w", source, err)
		}
		h.mu.Lock()
		dst := h.conns[to]
		gone := h.dead[to]
		dynamic := h.dynamic
		h.mu.Unlock()
		if dst == nil {
			bufpool.Put(payload)
			if dynamic {
				continue // destination not (or no longer) attached; drop
			}
			return fmt.Errorf("mpi: frame from %d for unknown rank %d", source, to)
		}
		if gone {
			bufpool.Put(payload)
			continue // destination died; drop, sender learns via death frame
		}
		h.wmu[to].Lock()
		bufs := net.Buffers{hdr[:], payload}
		_, err := bufs.WriteTo(dst)
		h.wmu[to].Unlock()
		bufpool.Put(payload)
		if err != nil {
			// The destination's connection broke mid-write: treat it as
			// dead rather than failing the whole hub, so the remaining
			// ranks keep communicating and learn of the loss.
			h.announceDeath(to)
		}
	}
}

// tcpComm is one rank's endpoint of a TCP world.
type tcpComm struct {
	rank, size int
	conn       net.Conn
	wmu        sync.Mutex
	box        *mailbox
	readErr    error        // guarded by box.mu
	peerDead   map[int]bool // guarded by box.mu
}

// DialComm connects rank to the hub at addr in a world of the given
// size, returning once the hub has acknowledged the registration. On a
// static hub traffic flows once every rank has dialed; close the
// underlying connection by calling CloseComm when done.
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
	c := &tcpComm{rank: rank, size: size, conn: conn, box: &mailbox{}, peerDead: make(map[int]bool)}
	c.box.cond.L = &c.box.mu
	go c.reader()
	return c, nil
}

// CloseComm tears down a TCP endpoint created by DialComm. Pending
// receives fail by panicking on connection loss, so close only after
// all communication is complete.
func CloseComm(c Comm) error {
	tc, ok := c.(*tcpComm)
	if !ok {
		return fmt.Errorf("mpi: not a TCP endpoint")
	}
	return tc.conn.Close()
}

func (c *tcpComm) reader() {
	r := bufio.NewReaderSize(c.conn, 256<<10)
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			c.failReads(err)
			return
		}
		source := int(binary.BigEndian.Uint32(hdr[4:]))
		wireTag := binary.BigEndian.Uint32(hdr[8:])
		n := int(binary.BigEndian.Uint32(hdr[12:]))
		if wireTag == tagControlWire {
			// Hub control frame: no payload (or payload 0) marks the peer
			// dead; payload {1} revives it (a dynamic hub re-issued the
			// rank to a new connection).
			revive := false
			if n > 0 {
				ctl := bufpool.GetRaw(n)
				if _, err := io.ReadFull(r, ctl); err != nil {
					bufpool.Put(ctl)
					c.failReads(err)
					return
				}
				revive = ctl[0] == 1
				bufpool.Put(ctl)
			}
			c.box.mu.Lock()
			if revive {
				delete(c.peerDead, source)
			} else {
				c.peerDead[source] = true
			}
			c.box.mu.Unlock()
			c.box.cond.Broadcast()
			continue
		}
		payload := bufpool.GetRaw(n) // fully overwritten by ReadFull
		if _, err := io.ReadFull(r, payload); err != nil {
			bufpool.Put(payload)
			c.failReads(err)
			return
		}
		c.box.put(Message{Source: source, Tag: int(wireTag) - 1, Data: payload})
	}
}

// failReads records the connection error and wakes blocked receivers:
// plain Recv then panics with the transport failure (Comm's interface
// has no error returns; a dead link is unrecoverable for an SPMD run),
// bounded receives fail with ErrPeerLost.
func (c *tcpComm) failReads(err error) {
	c.box.mu.Lock()
	c.readErr = err
	c.box.mu.Unlock()
	c.box.cond.Broadcast()
}

func (c *tcpComm) Rank() int { return c.rank }
func (c *tcpComm) Size() int { return c.size }

func (c *tcpComm) Send(to, tag int, data []byte) {
	checkPeer(c, to)
	checkTag(tag)
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(to))
	binary.BigEndian.PutUint32(hdr[4:], uint32(c.rank))
	binary.BigEndian.PutUint32(hdr[8:], uint32(tag)+1)
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(data)))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.conn.Write(hdr[:])
	if err == nil && len(data) > 0 {
		_, err = c.conn.Write(data)
	}
	if err != nil {
		c.linkDown(err)
	}
}

// linkDown handles a failed write: the frame is dropped, the link is
// marked down exactly as a failed read marks it, and the connection is
// closed so a half-written frame can never be followed by more bytes.
// The sender learns of the loss the way it learns of any other — its
// bounded receives fail with ErrPeerLost.
func (c *tcpComm) linkDown(err error) {
	c.failReads(fmt.Errorf("send: %w", err))
	c.conn.Close()
}

func (c *tcpComm) SendOwned(to, tag int, data []byte) { c.Send(to, tag, data) }

// SendVec implements VectorComm: the wire header, protocol header and
// payload go out in one writev, so the payload is read straight from
// the caller's buffer by the kernel — no intermediate frame. The write
// completes before SendVec returns, honoring the borrow contract.
func (c *tcpComm) SendVec(to, tag int, hdr, payload []byte) bool {
	checkPeer(c, to)
	checkTag(tag)
	var wire [16]byte
	binary.BigEndian.PutUint32(wire[0:], uint32(to))
	binary.BigEndian.PutUint32(wire[4:], uint32(c.rank))
	binary.BigEndian.PutUint32(wire[8:], uint32(tag)+1)
	binary.BigEndian.PutUint32(wire[12:], uint32(len(hdr)+len(payload)))
	bufs := net.Buffers{wire[:], hdr, payload}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := bufs.WriteTo(c.conn); err != nil {
		c.linkDown(err)
	}
	return true
}

func (c *tcpComm) Isend(to, tag int, data []byte) Request {
	c.Send(to, tag, data)
	return doneRequest{}
}

func (c *tcpComm) Recv(from, tag int) Message {
	if from != AnySource {
		checkPeer(c, from)
	}
	b := c.box
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.msgs {
			if matches(m, from, tag) {
				b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
				return m
			}
		}
		if c.readErr != nil {
			panic(fmt.Sprintf("mpi: tcp recv on rank %d: %v", c.rank, c.readErr))
		}
		b.cond.Wait()
	}
}

// RecvTimeout implements DeadlineComm. It fails with ErrPeerLost when
// this endpoint's own link is down, or when waiting on a specific rank
// the hub has announced dead. AnySource waits do not fail on peer
// deaths — another rank may still satisfy them — and rely on the
// timeout bound instead.
func (c *tcpComm) RecvTimeout(from, tag int, timeout time.Duration) (Message, error) {
	if from != AnySource {
		checkPeer(c, from)
	}
	return c.box.getWait(from, tag, timeout, func() error {
		if c.readErr != nil {
			return fmt.Errorf("mpi: tcp recv on rank %d: %v: %w", c.rank, c.readErr, ErrPeerLost)
		}
		if from != AnySource && c.peerDead[from] {
			return fmt.Errorf("mpi: rank %d is gone: %w", from, ErrPeerLost)
		}
		return nil
	})
}

// PeerLost implements PeerChecker using the hub's death notifications.
func (c *tcpComm) PeerLost(rank int) bool {
	c.box.mu.Lock()
	defer c.box.mu.Unlock()
	return c.peerDead[rank]
}
