package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Mesh TCP transport: unlike the Hub (tcp.go), which routes every frame
// through one process, the mesh transport connects ranks directly. A
// lightweight Registry performs the rendezvous — each rank listens on
// an ephemeral port, registers its address, and receives the full
// address table once everyone has joined — after which the registry is
// out of the data path entirely. Connections are directed and created
// lazily: a rank's first send to a peer dials a write-only connection;
// the reverse direction gets its own socket when the peer first sends
// back. Frames are frame.go's; the receiver takes the source from the
// connection's handshake, not from the frame.
//
// Registry wire format (big-endian):
//
//	register: u32 magic | u32 rank | u32 size | u16 addrLen | addr
//	table:    u32 size  | size × (u16 addrLen | addr)
//
// Peer handshake: u32 magic | u32 rank (the dialer's).

// Registry rendezvouses the ranks of one mesh world.
type Registry struct {
	ln   net.Listener
	size int
}

// ListenRegistry starts a rendezvous registry for a world of the given
// size.
func ListenRegistry(addr string, size int) (*Registry, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Registry{ln: ln, size: size}, nil
}

// Addr returns the registry's listen address.
func (r *Registry) Addr() string { return r.ln.Addr().String() }

// Serve accepts one registration per rank, then broadcasts the address
// table to every rank and exits. The registry is not needed afterwards.
func (r *Registry) Serve() error {
	defer r.ln.Close()
	conns := make([]net.Conn, r.size)
	addrs := make([]string, r.size)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for joined := 0; joined < r.size; joined++ {
		conn, err := r.ln.Accept()
		if err != nil {
			return err
		}
		rank, addr, err := readRegistration(conn, r.size)
		if err != nil {
			conn.Close()
			return err
		}
		if conns[rank] != nil {
			conn.Close()
			return fmt.Errorf("mpi: duplicate rank %d at registry", rank)
		}
		conns[rank] = conn
		addrs[rank] = addr
	}
	// Broadcast the table.
	var table []byte
	table = binary.BigEndian.AppendUint32(table, uint32(r.size))
	for _, a := range addrs {
		table = binary.BigEndian.AppendUint16(table, uint16(len(a)))
		table = append(table, a...)
	}
	for _, c := range conns {
		if _, err := c.Write(table); err != nil {
			return err
		}
	}
	return nil
}

func readRegistration(conn net.Conn, size int) (int, string, error) {
	var hdr [14]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, "", fmt.Errorf("mpi: registry: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:]) != tcpMagic {
		return 0, "", fmt.Errorf("mpi: registry: bad magic")
	}
	rank := int(binary.BigEndian.Uint32(hdr[4:]))
	wsize := int(binary.BigEndian.Uint32(hdr[8:]))
	if wsize != size {
		return 0, "", fmt.Errorf("mpi: rank %d registered with world size %d, registry expects %d", rank, wsize, size)
	}
	if rank < 0 || rank >= size {
		return 0, "", fmt.Errorf("mpi: registry: rank %d out of range", rank)
	}
	n := int(binary.BigEndian.Uint16(hdr[12:]))
	addr := make([]byte, n)
	if _, err := io.ReadFull(conn, addr); err != nil {
		return 0, "", err
	}
	return rank, string(addr), nil
}

// meshComm is one rank's endpoint of a mesh world. Connections are
// directed: a rank dials a peer lazily the first time it sends to it
// and uses that connection for writing only; inbound traffic arrives
// on connections the peer dialed, drained by acceptLoop. One socket
// per ordered pair sidesteps simultaneous-connect races entirely.
type meshComm struct {
	Endpoint // the receive half; its dead-peer set holds the links that broke
	ln       net.Listener
	addrs    []string

	mu      sync.Mutex  // guards peers, inbound and closed
	peers   []*meshPeer // outbound (write-only) connections, by rank
	inbound []net.Conn  // accepted (read-only) connections
	closed  bool        // set by CloseMesh
}

type meshPeer struct {
	conn net.Conn
	out  frameWriter
}

// JoinMesh registers rank with the registry at addr and returns its
// endpoint once every rank has joined. Call CloseMesh when done.
func JoinMesh(addr string, rank, size int) (Comm, error) {
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, size)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &meshComm{Endpoint: newEndpoint(rank, size), ln: ln, peers: make([]*meshPeer, size)}

	// Register and receive the table.
	reg, err := net.Dial("tcp", addr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	defer reg.Close()
	myAddr := ln.Addr().String()
	var msg []byte
	msg = binary.BigEndian.AppendUint32(msg, tcpMagic)
	msg = binary.BigEndian.AppendUint32(msg, uint32(rank))
	msg = binary.BigEndian.AppendUint32(msg, uint32(size))
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(myAddr)))
	msg = append(msg, myAddr...)
	if _, err := reg.Write(msg); err != nil {
		ln.Close()
		return nil, err
	}
	var cnt [4]byte
	if _, err := io.ReadFull(reg, cnt[:]); err != nil {
		ln.Close()
		return nil, fmt.Errorf("mpi: mesh rendezvous: %w", err)
	}
	if got := int(binary.BigEndian.Uint32(cnt[:])); got != size {
		ln.Close()
		return nil, fmt.Errorf("mpi: registry table for %d ranks, want %d", got, size)
	}
	c.addrs = make([]string, size)
	for i := 0; i < size; i++ {
		var l [2]byte
		if _, err := io.ReadFull(reg, l[:]); err != nil {
			ln.Close()
			return nil, err
		}
		a := make([]byte, binary.BigEndian.Uint16(l[:]))
		if _, err := io.ReadFull(reg, a); err != nil {
			ln.Close()
			return nil, err
		}
		c.addrs[i] = string(a)
	}

	go c.acceptLoop()
	return c, nil
}

// CloseMesh tears down a mesh endpoint.
func CloseMesh(c Comm) error {
	mc, ok := c.(*meshComm)
	if !ok {
		return fmt.Errorf("mpi: not a mesh endpoint")
	}
	mc.ln.Close()
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.closed = true
	for _, p := range mc.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	for _, conn := range mc.inbound {
		conn.Close()
	}
	return nil
}

func (c *meshComm) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func(conn net.Conn) {
			var hdr [8]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				conn.Close()
				return
			}
			if binary.BigEndian.Uint32(hdr[0:]) != tcpMagic {
				conn.Close()
				return
			}
			peer := int(binary.BigEndian.Uint32(hdr[4:]))
			if peer < 0 || peer >= c.size {
				conn.Close()
				return
			}
			c.mu.Lock()
			c.inbound = append(c.inbound, conn)
			c.mu.Unlock()
			c.readLoop(peer, conn)
		}(conn)
	}
}

// peerFor returns the outbound connection to a rank, dialing it on
// first use. The connection is used for writing only.
func (c *meshComm) peerFor(rank int) (*meshPeer, error) {
	c.mu.Lock()
	if p := c.peers[rank]; p != nil {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	conn, err := net.Dial("tcp", c.addrs[rank])
	if err != nil {
		return nil, err
	}
	if err := writeWords(conn, tcpMagic, uint32(c.rank)); err != nil {
		conn.Close()
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.peers[rank]; p != nil {
		// Another goroutine of this rank dialed concurrently (cannot
		// happen for single-threaded SPMD ranks, but stay safe).
		conn.Close()
		return p, nil
	}
	p := &meshPeer{conn: conn}
	c.peers[rank] = p
	return p, nil
}

// readLoop feeds frames from one peer into the mailbox. When the link
// breaks outside an orderly CloseMesh, the peer is marked dead so
// bounded receives waiting on it fail with ErrPeerLost instead of
// hanging (plain Recv still blocks — SPMD teardown closes everything —
// and, the endpoint's own link error never being set, never panics).
func (c *meshComm) readLoop(peer int, conn net.Conn) {
	fr := newFrameReader(conn)
	for {
		_, _, wireTag, payload, err := fr.next()
		if err != nil {
			c.markPeerDead(peer)
			return
		}
		c.box.Put(Message{Source: peer, Tag: int(wireTag) - 1, Data: payload})
	}
}

func (c *meshComm) markPeerDead(peer int) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if !closed {
		c.markPeer(peer, false)
	}
}

// emit sends a|b to rank `to` and reports whether it went out as one
// writev. A self-send parks in the mailbox, which must not alias
// borrowed segments, so it copies. A peer that cannot be reached, or
// whose write fails, is marked dead so bounded receives waiting on it
// fail with ErrPeerLost; the frame is dropped and a broken connection
// closed, so a half-written frame can never be followed by more bytes.
func (c *meshComm) emit(to, tag int, a, b []byte) bool {
	checkFrame(c, to, tag, len(a)+len(b))
	if to == c.rank {
		c.box.Put(Message{Source: c.rank, Tag: tag, Data: pooledCopy(a, b)})
		return false
	}
	p, err := c.peerFor(to)
	if err != nil {
		c.markPeerDead(to)
		return false
	}
	if err := p.out.write(p.conn, to, c.rank, uint32(tag)+1, a, b); err != nil {
		c.markPeerDead(to)
		p.conn.Close()
	}
	return true
}

func (c *meshComm) Send(to, tag int, data []byte) { c.emit(to, tag, data, nil) }

func (c *meshComm) SendOwned(to, tag int, data []byte) { c.emit(to, tag, data, nil) }

// SendVec implements VectorComm: one writev ships wire header, protocol
// header and payload without an intermediate frame.
func (c *meshComm) SendVec(to, tag int, hdr, payload []byte) bool {
	return c.emit(to, tag, hdr, payload)
}

func (c *meshComm) Isend(to, tag int, data []byte) Request {
	c.Send(to, tag, data)
	return doneRequest{}
}
