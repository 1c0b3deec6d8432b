package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"panda/internal/bufpool"
)

// rawRank registers a bare socket with hub as rank (hello, ack): a peer
// that knows the magic and nothing obliges to follow the protocol.
func rawRank(t *testing.T, hub *Hub, rank, size int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hello [12]byte
	binary.BigEndian.PutUint32(hello[0:], tcpMagic)
	binary.BigEndian.PutUint32(hello[4:], uint32(rank))
	binary.BigEndian.PutUint32(hello[8:], uint32(size))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// isDisconnect reports whether a read error means the peer went away
// rather than misbehaved: a clean EOF, or the reset the kernel sends for
// a peer that closed with unread frames (death announcements, typically)
// still in its socket buffer.
func isDisconnect(err error) bool {
	return err == io.EOF || errors.Is(err, syscall.ECONNRESET)
}

func rawHeader(to, source int, wireTag, n uint32) []byte {
	var hdr [frameHeaderBytes]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(to))
	binary.BigEndian.PutUint32(hdr[4:], uint32(source))
	binary.BigEndian.PutUint32(hdr[8:], wireTag)
	binary.BigEndian.PutUint32(hdr[12:], n)
	return hdr[:]
}

// allocatedDuring reports the bytes the process allocated while fn ran.
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOversizeFrameEndsTheConnection: sixteen bytes announcing a 4 GiB
// payload cost the reader nothing and end that connection the way a
// short read does — on the hub the rank is announced dead and the
// survivors keep running; on an endpoint the link goes down and bounded
// receives fail with ErrPeerLost.
func TestOversizeFrameEndsTheConnection(t *testing.T) {
	const budget = 4 << 20 // two readers' 256 KiB buffers and change; the lie is 4 GiB

	for _, local := range []bool{false, true} {
		t.Run(fmt.Sprintf("hub/observer local=%v", local), func(t *testing.T) {
			hub := startHub(t, 3)
			observer, err := attach(hub, local, 0, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer CloseComm(observer)
			other, err := attach(hub, false, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer CloseComm(other)
			liar := rawRank(t, hub, 1, 3)
			got := allocatedDuring(func() {
				if _, err := liar.Write(rawHeader(0, 1, 6, 0xFFFFFFFF)); err != nil {
					t.Fatal(err)
				}
				waitPeerLost(t, observer, 1, true)
			})
			if got > budget {
				t.Errorf("a lying header made the process allocate %d bytes", got)
			}
			// The hub closed the liar's socket...
			liar.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := io.Copy(io.Discard, liar); err != nil && !isDisconnect(err) {
				t.Errorf("the liar's connection was not closed: %v", err)
			}
			// ...and the survivors keep talking.
			other.Send(0, 9, []byte("still here"))
			if m, err := observer.(DeadlineComm).RecvTimeout(2, 9, 5*time.Second); err != nil || string(m.Data) != "still here" {
				t.Fatalf("after the liar left: %q, %v", m.Data, err)
			}
		})
	}

	t.Run("endpoint", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() { // a hub that acknowledges, then lies
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var hello [12]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				return
			}
			writeAck(conn)                             //nolint:errcheck
			conn.Write(rawHeader(0, 1, 6, 0xFFFFFFFF)) //nolint:errcheck
			io.Copy(io.Discard, conn)                  //nolint:errcheck // until the endpoint hangs up
		}()
		var c Comm
		got := allocatedDuring(func() {
			if c, err = DialComm(ln.Addr().String(), 0, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := c.(DeadlineComm).RecvTimeout(1, 5, time.Minute); !errors.Is(err, ErrPeerLost) {
				t.Fatalf("receive behind a lying header: %v, want ErrPeerLost", err)
			}
		})
		CloseComm(c)
		if got > budget {
			t.Errorf("a lying header made the endpoint allocate %d bytes", got)
		}
	})
}

// TestHubRelaysTheRegisteredSource: a frame arrives as sent by the rank
// its connection registered as, whatever its header claims.
func TestHubRelaysTheRegisteredSource(t *testing.T) {
	for _, local := range []bool{false, true} {
		hub := startHub(t, 3)
		victim, err := attach(hub, local, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		forger := rawRank(t, hub, 1, 3)
		frame := append(rawHeader(0, 2, 6, 5), "hello"...) // "from rank 2"
		if _, err := forger.Write(frame); err != nil {
			t.Fatal(err)
		}
		m, err := victim.(DeadlineComm).RecvTimeout(AnySource, 5, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.Source != 1 || string(m.Data) != "hello" {
			t.Errorf("local=%v: frame arrived as from rank %d (%q), want the registered rank 1", local, m.Source, m.Data)
		}
		CloseComm(victim)
	}
}

// TestWriterZeroAlloc: a frame written by a dialed endpoint — plain and
// scatter-gather — allocates nothing: the header and the scatter list
// live in the connection's frameWriter.
func TestWriterZeroAlloc(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := &tcpComm{Endpoint: newEndpoint(0, 2), conn: conn}
	hdr, payload := make([]byte, 25), make([]byte, 4<<10)
	if n := testing.AllocsPerRun(200, func() { c.Send(1, 7, payload) }); n != 0 {
		t.Errorf("Send allocates %v per frame", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.SendVec(1, 7, hdr, payload) }); n != 0 {
		t.Errorf("SendVec allocates %v per frame", n)
	}
	if err := c.linkErr(); err != nil {
		t.Fatalf("the link went down mid-test: %v", err)
	}
	conn.Close()
	<-drained
}

// socketReader hands out a byte stream the way a socket does — at most
// chunk bytes a call — and records every call's destination.
type socketReader struct {
	data  []byte
	chunk int
	calls int
	dsts  [][]byte // dsts[i] is the part of call i's buffer that was filled
}

func (s *socketReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), s.chunk)], s.data)
	s.data = s.data[n:]
	s.calls++
	s.dsts = append(s.dsts, p[:n])
	return n, nil
}

// TestReaderCopiesPayloadOnce: a large payload is read from the
// connection straight into the pooled buffer it is returned in — all of
// it but what the header's fill brought along — while small frames still
// share read calls through the buffered reader.
func TestReaderCopiesPayloadOnce(t *testing.T) {
	const n = 1 << 20
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i * 7)
	}
	src := &socketReader{data: append(rawHeader(1, 0, 6, n), body...), chunk: 64 << 10}
	_, _, _, payload, err := newFrameReader(src).next()
	if err != nil || !bytes.Equal(payload, body) {
		t.Fatalf("1 MiB frame: %d bytes, %v", len(payload), err)
	}
	direct := 0
	lo, hi := uintptr(unsafe.Pointer(&payload[0])), uintptr(unsafe.Pointer(&payload[n-1]))
	for _, dst := range src.dsts {
		if p := uintptr(unsafe.Pointer(&dst[0])); p >= lo && p <= hi {
			direct += len(dst)
		}
	}
	if direct < n*99/100 {
		t.Errorf("%d of %d payload bytes were read into the returned buffer, want >= 99%%", direct, n)
	}
	bufpool.Put(payload)

	const frames = 200
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = append(stream, rawHeader(1, 0, 6, 64)...)
		stream = append(stream, body[i:i+64]...)
	}
	src = &socketReader{data: stream, chunk: 64 << 10}
	fr := newFrameReader(src)
	for i := 0; i < frames; i++ {
		_, _, _, payload, err := fr.next()
		if err != nil || !bytes.Equal(payload, body[i:i+64]) {
			t.Fatalf("small frame %d: %d bytes, %v", i, len(payload), err)
		}
		bufpool.Put(payload)
	}
	if src.calls >= frames {
		t.Errorf("%d small frames cost %d read calls, want fewer than one each", frames, src.calls)
	}
}

// testPlacer places the payload of every frame whose first payload byte
// is even, behind a header of a length the next byte picks, into a
// destination fenced by guard bytes on both sides.
type testPlacer struct {
	buf            []byte // guard | destination | guard
	dst            []byte
	hdr            int
	granted, ended int
}

const placerGuard = 64

func (p *testPlacer) Place(source, tag int, head []byte, n int) (int, []byte) {
	if len(head) < 2 || head[0]%2 == 1 {
		return 0, nil
	}
	p.hdr = int(head[1]) % (len(head) + 1)
	p.buf = bytes.Repeat([]byte{0xA5}, placerGuard+n-p.hdr+placerGuard)
	p.dst = p.buf[placerGuard : placerGuard+n-p.hdr]
	p.granted++
	return p.hdr, p.dst
}

func (p *testPlacer) Placed(tag int) { p.ended++ }

// placedReader is a frame reader whose owner posted receives.
func placedReader(conn io.Reader, p Placer) *frameReader {
	fr := newFrameReader(conn)
	fr.place.Store(&p)
	return fr
}

// TestReaderPlacesPayloadOnce: a placed payload is read from the
// connection straight into the owner's destination — all of it but what
// the header's fill brought along — and the frame comes back as the
// header the owner claimed.
func TestReaderPlacesPayloadOnce(t *testing.T) {
	const n = 1 << 20
	body := make([]byte, n)
	for i := range body {
		body[i] = byte(i*7) &^ 1 // every byte even: the placer takes the frame
	}
	body[1] = 24 // its header length
	src := &socketReader{data: append(rawHeader(1, 0, 6, n), body...), chunk: 64 << 10}
	p := &testPlacer{}
	fr := placedReader(src, p)
	_, _, _, hdr, err := fr.next()
	if err != nil || p.granted != 1 || p.ended != 1 {
		t.Fatalf("placed frame: %v, %d placements granted, %d ended", err, p.granted, p.ended)
	}
	if fr.placed != n-24 || !bytes.Equal(hdr, body[:24]) || !bytes.Equal(p.dst, body[24:]) {
		t.Fatalf("placed frame: header %d bytes, %d placed; the bytes differ from the wire's", len(hdr), fr.placed)
	}
	direct := 0
	lo, hi := uintptr(unsafe.Pointer(&p.dst[0])), uintptr(unsafe.Pointer(&p.dst[len(p.dst)-1]))
	for _, dst := range src.dsts {
		if q := uintptr(unsafe.Pointer(&dst[0])); q >= lo && q <= hi {
			direct += len(dst)
		}
	}
	if direct < len(p.dst)*99/100 {
		t.Errorf("%d of %d placed bytes were read into the destination by the connection, want >= 99%%", direct, len(p.dst))
	}
	bufpool.Put(hdr)
}

// FuzzReadFrame feeds the one frame reader arbitrary bytes, with and
// without an owner placing payloads: it never panics, never returns (or
// sizes a buffer for) more than MaxFrameBytes, and a frame it accepts is
// exactly the bytes the header announced — a placed one as the header
// the owner claimed plus what landed in the destination, with nothing
// written outside it and every placement granted ended.
func FuzzReadFrame(f *testing.F) {
	f.Add(append(rawHeader(1, 0, 6, 3), 1, 2, 3))
	f.Add(rawHeader(0, 1, 0, 0))                    // a death announcement
	f.Add(rawHeader(0, 1, 6, 0xFFFFFFFF))           // the 4 GiB lie
	f.Add(rawHeader(0, 1, 6, MaxFrameBytes+1))      // one past the bound
	f.Add(append(rawHeader(0, 1, 6, 100), 1, 2, 3)) // short payload
	f.Add([]byte{0x50, 0x41, 0x4e})                 // short header
	big := make([]byte, readerBufBytes+100)
	big[1] = 17
	f.Add(append(rawHeader(0, 1, 6, uint32(len(big))), big...))                           // placed, 17-byte header
	f.Add(append(rawHeader(0, 1, 6, uint32(len(big))), big[:2000]...))                    // placed, cut mid-payload
	f.Add(append(rawHeader(0, 1, 6, uint32(len(big))), append([]byte{1}, big[1:]...)...)) // declined
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []*testPlacer{nil, {}} {
			fr := newFrameReader(bytes.NewReader(data))
			if p != nil {
				fr = placedReader(bytes.NewReader(data), p)
			}
			for off := 0; ; {
				granted := 0
				if p != nil {
					granted = p.granted
				}
				_, _, _, payload, err := fr.next()
				if p != nil && p.granted != p.ended {
					t.Fatalf("frame at %d: %d placements granted, %d ended", off, p.granted, p.ended)
				}
				if err != nil {
					break
				}
				want := int(binary.BigEndian.Uint32(data[off+12:]))
				wire := data[off+frameHeaderBytes : off+frameHeaderBytes+want]
				got := payload
				if p != nil && p.granted > granted {
					if fr.placed != len(p.dst) || len(payload) != p.hdr {
						t.Fatalf("frame at %d: %d header bytes and %d placed, the owner claimed %d and %d", off, len(payload), fr.placed, p.hdr, len(p.dst))
					}
					got = append(append([]byte{}, payload...), p.dst...)
					for _, g := range [][]byte{p.buf[:placerGuard], p.buf[len(p.buf)-placerGuard:]} {
						if !bytes.Equal(g, bytes.Repeat([]byte{0xA5}, placerGuard)) {
							t.Fatalf("frame at %d: the reader wrote outside the destination", off)
						}
					}
				} else if fr.placed != 0 {
					t.Fatalf("frame at %d: %d bytes placed without a placement", off, fr.placed)
				}
				if want > MaxFrameBytes || !bytes.Equal(got, wire) {
					t.Fatalf("frame at %d: %d payload bytes, header announced %d", off, len(got), want)
				}
				off += frameHeaderBytes + want
				bufpool.Put(payload)
			}
		}
	})
}
