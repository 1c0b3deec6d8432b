package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/mpi"
)

// standIn plays a hub and its one server rank for one dialed client: it
// acknowledges the client's hello, hands the client's loopbacks back as
// the hub would, passes the seq of every op request to the test, and
// writes to the client whatever frames the test gives it, at whatever
// pace the test likes — a header, half a payload, then nothing.
type standIn struct {
	conn     net.Conn
	mu       sync.Mutex // one writer at a time: a frame is never interleaved
	requests chan int
}

// hubMagic opens the hub's hello and is its ack (mpi/tcp.go).
const hubMagic = 0x50414e44

func newStandIn(t *testing.T, cfg Config) (*standIn, mpi.Comm) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		defer close(accepted)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		var hello [12]byte
		var ack [4]byte
		binary.BigEndian.PutUint32(ack[:], hubMagic)
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			return
		}
		conn.Write(ack[:]) //nolint:errcheck // DialComm fails if it does not arrive
		accepted <- conn
	}()
	comm, err := mpi.DialComm(ln.Addr().String(), 0, cfg.WorldSize())
	if err != nil {
		t.Fatal(err)
	}
	s := &standIn{conn: <-accepted, requests: make(chan int, 16)}
	t.Cleanup(func() {
		mpi.CloseComm(comm) //nolint:errcheck
		s.conn.Close()
	})
	go s.serve()
	return s, comm
}

// serve reads what the client sends: a frame to itself goes back, an op
// request's seq to the test, anything else nowhere.
func (s *standIn) serve() {
	var hdr [16]byte
	for {
		if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
			return
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr[12:]))
		if _, err := io.ReadFull(s.conn, payload); err != nil {
			return
		}
		if binary.BigEndian.Uint32(hdr[0:]) == 0 {
			s.write(append(hdr[:], payload...)) //nolint:errcheck // a gone client reads nothing
		} else if req, err := decodeOpRequest(payload); err == nil {
			s.requests <- int(req.Seq)
		}
	}
}

func (s *standIn) write(frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.conn.Write(frame)
	return err
}

// wireFrame is body as one frame from the server rank to the client on
// tag.
func wireFrame(tag int, body []byte) []byte {
	f := make([]byte, 16, 16+len(body))
	binary.BigEndian.PutUint32(f[4:], 1)
	binary.BigEndian.PutUint32(f[8:], uint32(tag)+1)
	binary.BigEndian.PutUint32(f[12:], uint32(len(body)))
	return append(f, body...)
}

// dataFrame is the frame of one piece of array ai for op seq.
func dataFrame(seq, ai int, reg array.Region, payload []byte) []byte {
	hdr := encodeSubDataHeader(subData{ArrayIdx: ai, Region: reg}, 0)
	return wireFrame(tagToClient(seq), append(append([]byte{}, hdr...), payload...))
}

func completeFrame(seq int) []byte {
	return wireFrame(tagToClient(seq), encodeStatus(msgComplete, 0, 0, nil))
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// stashed is how many frames of op seq the client's router holds for an
// op it has not yet bound.
func stashed(cl *Client, seq int) int {
	f := cl.router.frames
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.stash[seq])
}

// TestTimedOutReadNeverWritesTheArray is the fence: a server sends a
// piece's header announcing 1 MiB, half of the payload, and stalls. The
// read times out, typed and in bounded time, and the rest of the payload,
// sent after it returned, never reaches the array — the stalled
// placement was ended by cutting the connection before the read handed
// the array back. Under -race the detector also sees any late write.
func TestTimedOutReadNeverWritesTheArray(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 1 << 20, OpTimeout: 300 * time.Millisecond}
	s, comm := newStandIn(t, cfg)
	cl := NewClient(cfg, comm, clock.NewReal())
	defer cl.Shutdown()
	spec := mustSpec1D(t, "fence", 1<<20, 1, 1)
	buf := bytes.Repeat([]byte{0x5A}, 1<<20)

	type result struct {
		err     error
		elapsed time.Duration
		sum     uint32
	}
	done := make(chan result, 1)
	go func() {
		t0 := time.Now()
		err := cl.ReadArrays("", []ArraySpec{spec}, [][]byte{buf})
		done <- result{err, time.Since(t0), crc32.ChecksumIEEE(buf)}
	}()
	seq := <-s.requests
	frame := dataFrame(seq, 0, spec.MemChunk(0), bytes.Repeat([]byte{0xC3}, 1<<20))
	half := len(frame) - (1<<20)/2
	s.mu.Lock()                // nothing may follow the half-written frame
	s.conn.Write(frame[:half]) //nolint:errcheck
	r := <-done
	s.conn.Write(frame[half:]) //nolint:errcheck // the client may be gone: it must be
	s.mu.Unlock()
	time.Sleep(100 * time.Millisecond) // room for a late write to land, were one possible

	if !errors.Is(r.err, ErrTimeout) && !errors.Is(r.err, ErrPeerLost) {
		t.Fatalf("stalled read: %v, want ErrTimeout or ErrPeerLost", r.err)
	}
	if r.elapsed > cfg.OpTimeout+time.Second {
		t.Errorf("stalled read returned after %v, want within OpTimeout + 1 s", r.elapsed)
	}
	if sum := crc32.ChecksumIEEE(buf); sum != r.sum {
		t.Errorf("the array changed after the read returned: checksum %08x, was %08x", sum, r.sum)
	}
}

// TestUnplacedFramesKeepTheirOutcome: a frame the posted reads cannot
// place takes the pooled path with the outcome it always had — a frame
// of a retired op is rejected, one of an op never run is stashed, one
// that arrives before its op is posted is stashed and then absorbed, an
// out-of-chunk region and a payload that disagrees with its region fail
// with absorbData's errors — and not one of its bytes lands in an
// application array through the hook. A placed and a pooled read of the
// same array count the same bytes received and moved.
func TestUnplacedFramesKeepTheirOutcome(t *testing.T) {
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 64 << 10, OpTimeout: 10 * time.Second}
	s, comm := newStandIn(t, cfg)
	cl := NewClient(cfg, comm, clock.NewReal())
	defer cl.Shutdown()
	const size, piece = 256 << 10, 64 << 10
	specs := []ArraySpec{mustSpec1D(t, "pooled", size, 1, 1)}
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*131 + i>>9)
	}
	region := func(lo, n int) array.Region { return array.Region{Lo: []int{lo / 4}, Hi: []int{(lo + n) / 4}} }
	pieces := func(seq int) [][]byte {
		var frames [][]byte
		for off := 0; off < size; off += piece {
			frames = append(frames, dataFrame(seq, 0, region(off, piece), want[off:off+piece]))
		}
		return frames
	}
	junk := bytes.Repeat([]byte{0xEE}, piece)
	// read runs one read into a fresh buffer, serving it once its request
	// is in, and returns what the read moved.
	read := func(serve func(seq int)) ([]byte, Stats, error) {
		before := cl.Stats()
		buf := make([]byte, size)
		errc := make(chan error, 1)
		go func() { errc <- cl.ReadArrays("", specs, [][]byte{buf}) }()
		serve(<-s.requests)
		err := <-errc
		after := cl.Stats()
		return buf, Stats{
			BytesRecv:     after.BytesRecv - before.BytesRecv,
			ContigBytes:   after.ContigBytes - before.ContigBytes,
			ZeroCopyBytes: after.ZeroCopyBytes - before.ZeroCopyBytes,
		}, err
	}
	serveAll := func(frames [][]byte) func(int) {
		return func(seq int) {
			for _, f := range frames {
				s.write(f) //nolint:errcheck
			}
			s.write(completeFrame(seq)) //nolint:errcheck
		}
	}
	zeroCopy := func() int64 { return cl.Stats().ZeroCopyBytes }

	// Op 0, placed: the yardstick.
	placedBuf, placed, err := read(func(seq int) { serveAll(pieces(seq))(seq) })
	if err != nil || !bytes.Equal(placedBuf, want) {
		t.Fatalf("placed read: %v, bit-exact %v", err, bytes.Equal(placedBuf, want))
	}
	if placed.ZeroCopyBytes != size {
		t.Fatalf("placed read: zero_copy_bytes %d, want %d", placed.ZeroCopyBytes, size)
	}
	zc := zeroCopy()

	t.Run("retired op", func(t *testing.T) {
		eventually(t, "op 0 to retire", func() bool { _, ok := cl.router.frames.retired(0); return ok })
		rejected := cl.Stats().FramesRejected
		s.write(dataFrame(0, 0, region(0, piece), junk)) //nolint:errcheck
		eventually(t, "the frame to be rejected", func() bool { return cl.Stats().FramesRejected == rejected+1 })
	})
	t.Run("op never run", func(t *testing.T) {
		s.write(dataFrame(9, 0, region(0, piece), junk)) //nolint:errcheck
		eventually(t, "the frame to be stashed", func() bool { return stashed(cl, 9) == 1 })
	})
	t.Run("before its op is posted", func(t *testing.T) {
		for _, f := range pieces(1) {
			s.write(f) //nolint:errcheck
		}
		eventually(t, "the frames to be stashed", func() bool { return stashed(cl, 1) == size/piece })
		buf, pooled, err := read(func(seq int) { s.write(completeFrame(seq)) }) //nolint:errcheck
		if err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("stashed read: %v, bit-exact %v", err, bytes.Equal(buf, want))
		}
		if pooled.ZeroCopyBytes != 0 || pooled.BytesRecv != placed.BytesRecv || pooled.ContigBytes != placed.ContigBytes {
			t.Errorf("pooled read moved %+v, placed read %+v: want the same bytes_recv and contig_bytes, no zero_copy_bytes", pooled, placed)
		}
	})
	t.Run("out-of-chunk region", func(t *testing.T) {
		buf, _, err := read(serveAll([][]byte{dataFrame(2, 0, region(size, piece), junk)}))
		if err == nil || !strings.Contains(err.Error(), "outside chunk") || !bytes.Equal(buf, make([]byte, size)) {
			t.Fatalf("out-of-chunk piece: %v, want absorbData's refusal and an untouched array", err)
		}
	})
	t.Run("payload disagrees with its region", func(t *testing.T) {
		buf, _, err := read(serveAll([][]byte{dataFrame(3, 0, region(0, piece), append(junk, 1, 2, 3, 4))}))
		if err == nil || !strings.Contains(err.Error(), "carries") || !bytes.Equal(buf, make([]byte, size)) {
			t.Fatalf("mis-sized piece: %v, want absorbData's refusal and an untouched array", err)
		}
	})
	if got := zeroCopy(); got != zc {
		t.Errorf("%d bytes were placed by frames no posted read could take", got-zc)
	}
	if !bytes.Equal(placedBuf, want) {
		t.Error("a late frame reached the array of a read that had returned")
	}
}

// TestStridedPiecesReadOverTCP: pieces strided in a dialed client's
// chunk take the pooled path and read back bit-exact, placing nothing;
// a reorganizing read whose pieces are contiguous in the client's chunk
// (the gather is the server's) reads back bit-exact too.
func TestStridedPiecesReadOverTCP(t *testing.T) {
	shape := []int{256, 256} // every piece past the reader's buffer: the hook is asked
	rows := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{2})
	cols := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{2})
	for _, tc := range []struct {
		name    string
		spec    ArraySpec
		strided bool // in the client's chunk
	}{
		{"*,BLOCK memory over BLOCK,* disk", ArraySpec{Name: "cols", ElemSize: 4, Mem: cols, Disk: rows}, false},
		{"BLOCK,* memory over *,BLOCK disk", ArraySpec{Name: "rows", ElemSize: 4, Mem: rows, Disk: cols}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 32 << 10, OpTimeout: 10 * time.Second}
			var placed, reorg atomic.Int64
			specs := []ArraySpec{tc.spec}
			err := runHubLocal(cfg, memDisks(2), nil, func(cl *Client) error {
				err := writeReadBack(specs)(cl)
				placed.Add(cl.Stats().ZeroCopyBytes)
				reorg.Add(cl.Stats().ReorgBytes)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.strided && (placed.Load() != 0 || reorg.Load() == 0) {
				t.Errorf("strided pieces: %d bytes placed, %d reorganized; want none placed", placed.Load(), reorg.Load())
			}
		})
	}
}

// TestPlacedFrameZeroAlloc: in the steady state a placed frame — the
// reader placing its payload, the router routing its header, the
// executor counting it — allocates nothing.
func TestPlacedFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats bufpool's reuse")
	}
	cfg := Config{NumClients: 1, NumServers: 1, SubchunkBytes: 8 << 10} // no OpTimeout: no timer per wait
	s, comm := newStandIn(t, cfg)
	cl := NewClient(cfg, comm, clock.NewReal())
	defer cl.Shutdown()
	const piece, pieces = 8 << 10, 512
	spec := mustSpec1D(t, "steady", piece*pieces, 1, 1)
	want := make([]byte, piece*pieces)
	for i := range want {
		want[i] = byte(i * 7)
	}
	frames := make([][]byte, pieces)
	for i := range frames {
		reg := array.Region{Lo: []int{i * piece / 4}, Hi: []int{(i + 1) * piece / 4}}
		frames[i] = dataFrame(0, 0, reg, want[i*piece:(i+1)*piece])
	}
	buf := make([]byte, piece*pieces)
	errc := make(chan error, 1)
	go func() { errc <- cl.ReadArrays("", []ArraySpec{spec}, [][]byte{buf}) }()
	seq := <-s.requests
	sent := 0
	send := func() {
		s.write(frames[sent]) //nolint:errcheck
		sent++
		for cl.cnt[cZeroCopyBytes].Value() < int64(sent*piece) {
			runtime.Gosched()
		}
	}
	for sent < 300 {
		send()
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("a placed frame allocates %v", n)
	}
	for sent < pieces {
		send()
	}
	s.write(completeFrame(seq)) //nolint:errcheck
	if err := <-errc; err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("read: %v, bit-exact %v", err, bytes.Equal(buf, want))
	}
}

// FuzzPlace feeds the posted ops, a read and a write, arbitrary frame
// heads: a read's window goes only to a sub-data head, a write's only to
// a pull head offered with n = the pull's header + the piece's bytes;
// whatever the table grants lies inside that op's chunk buffer and is
// exactly as long as the bytes past the header it claims; a placement
// holds the op until Placed ends it.
func FuzzPlace(f *testing.F) {
	shape := []int{16, 8, 4}
	specs := []ArraySpec{
		{Name: "a", ElemSize: 4, Mem: array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})},
		{Name: "b", ElemSize: 8, Mem: array.MustSchema(shape, []array.Dist{array.Star, array.Block, array.Star}, []int{2})},
	}
	p := &postedOps{lends: true}
	ops := map[int]*collectiveOp{}
	for _, o := range []*collectiveOp{{op: opRead, seq: 5}, {op: opWrite, seq: 6}} {
		o.specs = specs
		for _, spec := range specs {
			chunk := spec.MemChunk(1)
			o.chunks = append(o.chunks, chunk)
			o.bufs = append(o.bufs, make([]byte, chunk.NumElems()*int64(spec.ElemSize)))
		}
		p.post(o)
		ops[o.seq] = o
	}
	data := func(ai int, reg array.Region) []byte {
		return encodeSubDataHeader(subData{ArrayIdx: ai, Region: reg}, 0)
	}
	pull := func(ai int, reg array.Region) []byte { return encodeSubReq(subReq{ArrayIdx: ai, Region: reg}) }
	whole := ops[5].chunks[0]
	rows := array.Region{Lo: []int{9, 0, 0}, Hi: []int{11, 8, 4}}
	strided := array.Region{Lo: []int{0, 4, 0}, Hi: []int{4, 6, 4}}
	for _, h := range []func(int, array.Region) []byte{data, pull} {
		f.Add(h(0, whole), uint32(len(h(0, whole))+len(ops[5].bufs[0])), uint8(5))
		f.Add(h(0, whole), uint32(len(h(0, whole))+len(ops[6].bufs[0])), uint8(6))
		f.Add(h(0, rows), uint32(len(h(0, rows))+2*8*4*4), uint8(5))
		f.Add(h(0, rows), uint32(len(h(0, rows))+2*8*4*4), uint8(6))
		f.Add(h(0, rows), uint32(len(h(0, rows))), uint8(6))         // a pull as it crosses a socket
		f.Add(h(0, rows), uint32(len(h(0, rows))+2*8*4*4), uint8(4)) // not posted
		f.Add(h(1, strided), uint32(len(h(1, strided))+4*2*4*8), uint8(6))
	}
	f.Fuzz(func(t *testing.T, h []byte, n uint32, seq uint8) {
		h = h[:min(len(h), 64)]
		tag := tagToClient(int(seq % 8))
		size := int(n % (mpi.MaxFrameBytes + 1))
		hdr, dst := p.Place(1, tag, h, size)
		if dst == nil {
			return
		}
		o := ops[int(seq%8)]
		if o == nil || hdr < 0 || hdr > len(h) || hdr+len(dst) != size {
			t.Fatalf("placed %d bytes behind a %d-byte header of %d for seq %d", len(dst), hdr, size, seq%8)
		}
		r := rbuf{b: h}
		switch kind := r.u8(); {
		case kind == msgSubData && o.op == opRead:
		case kind == msgSubReq && o.op == opWrite:
			q, err := decodeSubReq(&r, &regionSpace{})
			if err != nil || r.off != hdr || int64(len(dst)) != q.Region.NumElems()*int64(o.specs[q.ArrayIdx].ElemSize) {
				t.Fatalf("a %d-byte window for pull %+v (%v) behind a %d-byte header", len(dst), q, err, hdr)
			}
		default:
			t.Fatalf("message type %d granted a window of op %d's %s", kind, o.seq, opName(o.op))
		}
		inside := false
		for _, buf := range o.bufs {
			lo, hi := uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&buf[len(buf)-1]))
			first, last := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&dst[len(dst)-1]))
			inside = inside || first >= lo && last <= hi
		}
		if !inside {
			t.Fatalf("placed %d bytes outside every chunk buffer of op %d", len(dst), o.seq)
		}
		if o.placing != 1 {
			t.Fatalf("%d placements in progress, want 1", o.placing)
		}
		p.Placed(tag)
	})
}
