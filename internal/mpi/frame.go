package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"panda/internal/bufpool"
)

// The one TCP data frame, spoken by the hub, by dialed and hub-local
// endpoints and by the mesh (all big-endian):
//
//	u32 to | u32 source | u32 tag+1 | u32 len | payload (len bytes)
//
// frameWriter alone builds this header and writes a data frame to a
// socket; frameReader.next alone parses it and sizes the payload
// buffer. len is at most MaxFrameBytes: senders check it as they check
// the tag (core.Config.Validate refuses a SubchunkBytes whose data frame
// could reach it), and the reader refuses a longer header before it
// allocates — sixteen bytes from a connection that knows the magic must
// not cost the process 4 GiB. Such a header, like a short read, ends
// that connection. Who uses to and source is the caller's business: the
// hub routes on to and relays the rank the connection registered as,
// whatever source says; a dialed endpoint trusts its hub; the mesh takes
// the source from the peer handshake. Wire tag 0 marks a hub control
// frame (tcp.go).

// MaxFrameBytes bounds the payload of one TCP frame: sixteen of the
// default 1 MiB sub-chunks.
const MaxFrameBytes = 16 << 20

const frameHeaderBytes = 16

// checkFrame panics on a send no caller may make: a rank outside the
// world, a negative tag, a frame past MaxFrameBytes.
func checkFrame(c interface{ Size() int }, to, tag, n int) {
	checkPeer(c, to)
	checkTag(tag)
	if n > MaxFrameBytes {
		panic("mpi: frame exceeds MaxFrameBytes")
	}
}

// frameWriter serializes the writes to one socket and holds their
// header and scatter list, so a frame goes out as one writev and
// allocates nothing, whoever sends it: a hub route goroutine relaying,
// a local endpoint, the hub announcing a death, a dialed or mesh
// endpoint's owner. A file frame (writeFile) also keeps its raw socket
// and sendfile state here. The zero value is ready.
type frameWriter struct {
	mu   sync.Mutex
	wire [frameHeaderBytes]byte
	segs [3][]byte
	bufs net.Buffers

	// File frames: the raw socket of rawOf, and sendStep bound once, so a
	// frame allocates nothing; then the range in flight and the error
	// that ended it early.
	rawOf  net.Conn
	raw    syscall.RawConn
	step   func(uintptr) bool
	src    int
	off    int64
	left   int
	srcErr error
}

// write sends one frame — the wire header, then a|b — on dst as a
// single writev. After an error the frame may be half-written: the
// caller takes the link down.
func (w *frameWriter) write(dst net.Conn, to, source int, wireTag uint32, a, b []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writev(dst, to, source, wireTag, a, b, 0)
}

// writev writes a wire header announcing a|b and more bytes behind them,
// then a|b, as one writev. w.mu is held.
func (w *frameWriter) writev(dst net.Conn, to, source int, wireTag uint32, a, b []byte, more int) error {
	binary.BigEndian.PutUint32(w.wire[0:], uint32(to))
	binary.BigEndian.PutUint32(w.wire[4:], uint32(source))
	binary.BigEndian.PutUint32(w.wire[8:], wireTag)
	binary.BigEndian.PutUint32(w.wire[12:], uint32(len(a)+len(b)+more))
	w.segs = [3][]byte{w.wire[:], a, b}
	w.bufs = w.segs[:]
	_, err := w.bufs.WriteTo(dst)
	w.segs = [3][]byte{} // the payload segments were only borrowed
	return err
}

// writeFile sends one frame whose payload is hdr followed by n bytes of
// f from off: the wire header and hdr as one writev, then the range
// handed to the kernel — page cache to socket, no user-space copy —
// waiting on the poller whenever the socket is full. Where dst has no
// raw socket (or the system no sendfile) the range is read into a pooled
// buffer and written as write does. A range the file does not hold is
// completed with zeros, so the link is never left mid-frame, and comes
// back as fileErr; only a failed socket write is linkErr, after which
// the frame may be half-written and the caller takes the link down, as
// after write. zc reports that the range went by sendfile.
func (w *frameWriter) writeFile(dst net.Conn, to, source int, wireTag uint32, hdr []byte, f *os.File, off int64, n int) (zc bool, fileErr, linkErr error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	raw := w.rawConn(dst)
	if raw == nil {
		buf := bufpool.GetRaw(n)
		fileErr = readFileRange(f, buf, off)
		linkErr = w.writev(dst, to, source, wireTag, hdr, buf, 0)
		bufpool.Put(buf)
		return false, fileErr, linkErr
	}
	if linkErr = w.writev(dst, to, source, wireTag, hdr, nil, n); linkErr != nil {
		return false, nil, linkErr
	}
	w.src, w.off, w.left, w.srcErr = int(f.Fd()), off, n, nil
	linkErr = raw.Write(w.step)
	runtime.KeepAlive(f)
	if linkErr == nil && w.left > 0 {
		// The range ended early. Zeros keep the frame whole; if they cannot
		// be written either, what ended it was the socket.
		if linkErr = writeZeros(dst, w.left); w.srcErr != nil {
			fileErr = fmt.Errorf("mpi: sendfile: %w", w.srcErr)
		} else {
			fileErr = shortFile(n-w.left, n, off)
		}
	}
	if linkErr != nil {
		return false, nil, linkErr
	}
	return true, fileErr, nil
}

// rawConn returns dst's raw socket for sendfile, nil when there is none
// to be had. It is fetched once per connection; sendStep is bound once
// per writer.
func (w *frameWriter) rawConn(dst net.Conn) syscall.RawConn {
	if !zeroCopyFiles {
		return nil
	}
	if dst != w.rawOf {
		w.rawOf, w.raw = dst, nil
		if sc, ok := dst.(syscall.Conn); ok {
			w.raw, _ = sc.SyscallConn() // none to be had: the buffered path
		}
	}
	if w.step == nil {
		w.step = w.sendStep
	}
	return w.raw
}

// frameReader reads the frames of one connection. Headers and small
// frames come through a buffered reader sized for them, so a run of
// control frames costs less than one read call each; a payload past the
// buffer takes what the header's fill already brought in and reads the
// rest from the connection straight into the buffer it is returned in —
// a payload byte is copied once, by the kernel. On a dialed endpoint
// whose owner posted receives (PostReceives), that buffer may be the
// owner's own: see Placer.
type frameReader struct {
	conn  io.Reader
	r     *bufio.Reader
	hdr   [frameHeaderBytes]byte
	place atomic.Pointer[Placer] // the owner's posted receives; nil: none

	// placed is the number of payload bytes of the frame next last
	// returned that went to a Placer's destination; its payload is then
	// the header alone.
	placed int
}

// readerBufBytes sizes the buffered reader: some fifty 64-byte frames a
// fill, and under half a percent of a 1 MiB payload.
const readerBufBytes = 4 << 10

// placeHeadBytes is the head of a payload a Placer is offered: enough
// for a sub-data header of up to seven dimensions. A frame whose header
// is longer takes the pooled path.
const placeHeadBytes = 64

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{conn: conn, r: bufio.NewReaderSize(conn, readerBufBytes)}
}

// next reads one frame into a pooled buffer the caller owns. After any
// error — a disconnect, a short read, a length past MaxFrameBytes — the
// stream is unusable and there is nothing to recycle.
func (fr *frameReader) next() (to, source int, wireTag uint32, payload []byte, err error) {
	fr.placed = 0
	if _, err = io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	to, source = int(binary.BigEndian.Uint32(fr.hdr[0:])), int(binary.BigEndian.Uint32(fr.hdr[4:]))
	wireTag = binary.BigEndian.Uint32(fr.hdr[8:])
	n := binary.BigEndian.Uint32(fr.hdr[12:])
	if n > MaxFrameBytes {
		return 0, 0, 0, nil, fmt.Errorf("mpi: frame header announces %d bytes, limit %d", n, MaxFrameBytes)
	}
	if p := fr.place.Load(); p != nil && n > readerBufBytes && wireTag != tagControlWire {
		hdr, ok, err := fr.readPlaced(*p, source, int(wireTag)-1, int(n))
		if err != nil {
			return 0, 0, 0, nil, err
		}
		if ok {
			return to, source, wireTag, hdr, nil
		}
	}
	payload = bufpool.GetRaw(int(n)) // fully overwritten below
	var src io.Reader = fr.r
	rest := payload
	if len(payload) > readerBufBytes {
		k := fr.r.Buffered()
		if k > 0 {
			fr.r.Read(payload[:k]) //nolint:errcheck // copies the buffered bytes out, no more
		}
		src, rest = fr.conn, payload[k:]
	}
	if _, err = io.ReadFull(src, rest); err != nil {
		bufpool.Put(payload)
		return 0, 0, 0, nil, err
	}
	return to, source, wireTag, payload, nil
}

// readPlaced offers p the head of an n-byte payload from source on tag.
// When p places it, the header p claims is read into a pooled buffer and
// returned, and the rest of the payload — what the buffered reader holds
// of it, then the remainder straight from the connection — into p's
// destination, after which p is told the placement ended, read or not.
// ok is false when p declined: nothing has been consumed.
func (fr *frameReader) readPlaced(p Placer, source, tag, n int) (hdr []byte, ok bool, err error) {
	head, _ := fr.r.Peek(placeHeadBytes) // short on a failing stream: p declines, the pooled read fails
	h, dst := p.Place(source, tag, head, n)
	if dst == nil {
		return nil, false, nil
	}
	defer p.Placed(tag)
	if h < 0 || h > len(head) || h+len(dst) != n {
		panic("mpi: a placement that does not fit its frame")
	}
	hdr = bufpool.GetRaw(h)
	fr.r.Read(hdr) //nolint:errcheck // h <= len(head) bytes are buffered
	k := min(fr.r.Buffered(), len(dst))
	if k > 0 {
		fr.r.Read(dst[:k]) //nolint:errcheck // copies the buffered bytes out, no more
	}
	if _, err = io.ReadFull(fr.conn, dst[k:]); err != nil {
		bufpool.Put(hdr)
		return nil, false, err
	}
	fr.placed = len(dst)
	return hdr, true, nil
}

// Placer is an endpoint owner's posted operations (PostReceives): the
// MPI_Irecv idiom, a buffer named before the data moves. It is offered
// the head of a frame before the frame's payload is copied anywhere.
// When the owner has a place for the payload — a piece its posted read
// awaits — the payload is copied there, not into a pooled frame the
// owner would copy out of: a dialed endpoint's reader reads it from the
// socket into the place; an in-process sender (PlaceComm) writes it
// there. The frame is still delivered, as its header alone, with
// Message.Placed saying how many bytes went where. In process the head
// may also be a request for data, offered with n counting the bytes its
// answer would carry: when the owner's posted send holds that answer,
// the place is where it lies, the sender copies it out and releases the
// placement, and neither frame is sent. Which of the two a head asks for
// is the owner's protocol; a dialed reader only offers frames that
// arrived, so it never meets a request with an answer to read. A dialed
// reader calls Place and Placed from its one goroutine; in process every
// rank sending to the owner may call them, concurrently.
type Placer interface {
	// Place is offered head, the first bytes of the n-byte payload of a
	// frame from source on tag (at most 64; fewer only when the stream is
	// failing or the sender's header is shorter). It returns how many
	// leading bytes of the payload are the owner's header, at most
	// len(head), and exactly the other n-hdr bytes of the owner's memory
	// — the destination of the payload, or the answer to a request — or
	// nil, leaving the frame to the pooled path.
	Place(source, tag int, head []byte, n int) (hdr int, dst []byte)
	// Placed ends a placement Place granted, whether its copy succeeded
	// or failed: the transport touches dst no more.
	Placed(tag int)
}

// PostReceives makes p the placement hook of the first endpoint down c's
// chain of observers that takes one (capable), and reports whether there
// was one: a dialed endpoint (DialComm) reads payloads straight from its
// own connection, and an in-process World endpoint's senders write them,
// or read the answers to their requests (PlaceComm). Hub-local, mesh and
// simulated endpoints take none, and interposers hide their endpoint's.
// A later call replaces the hook.
func PostReceives(c Comm, p Placer) bool {
	pc, ok := capable[interface{ post(Placer) }](c)
	if ok {
		pc.post(p)
	}
	return ok
}
