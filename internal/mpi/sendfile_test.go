package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"panda/internal/bufpool"
)

// fileLink is one kind of socket writer a file frame leaves through:
// rank 0's endpoint, and the raw far end of the socket its frames for
// rank 1 travel on, which the test reads.
type fileLink struct {
	name string
	send FileComm
	wire net.Conn
	sock func() *net.TCPConn // the writer's own end of that socket
}

// fileLinks builds every writer a FileComm frame can leave through: a
// hub-local endpoint writing onto a dialed rank's socket (the hub's
// per-rank writer) and a dialed endpoint writing onto its hub socket.
// Each has sent one plain frame already, consumed here, so its socket
// exists.
func fileLinks(t *testing.T) []fileLink {
	t.Helper()
	hi := func(l fileLink) fileLink {
		t.Helper()
		if got := readRawFrame(t, l.wire); !bytes.Equal(got[frameHeaderBytes:], []byte("hi")) {
			t.Fatalf("%s: first frame %q", l.name, got)
		}
		return l
	}

	hub := startHub(t, 2)
	local, err := hub.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { CloseComm(local) })
	hubWire := rawRank(t, hub, 1, 2)
	local.Send(1, 1, []byte("hi"))
	hubLocal := hi(fileLink{name: "hub-local", send: local.(FileComm), wire: hubWire, sock: func() *net.TCPConn {
		return hub.dest(1).conn.(*net.TCPConn)
	}})

	// A socket whose far end the test holds, for the endpoint that dials.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	dialedWire, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); dialedWire.Close() })
	dialed := &tcpComm{Endpoint: newEndpoint(0, 2), conn: conn}
	dialed.Send(1, 1, []byte("hi"))

	return []fileLink{
		hubLocal,
		hi(fileLink{name: "dialed", send: dialed, wire: dialedWire, sock: func() *net.TCPConn { return conn.(*net.TCPConn) }}),
	}
}

// readRawFrame reads one frame off r as the bytes on the wire: the
// header, then the payload it announces.
func readRawFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHeaderBytes+int(binary.BigEndian.Uint32(hdr[12:])))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[frameHeaderBytes:]); err != nil {
		t.Fatal(err)
	}
	return frame
}

// testFile writes n patterned bytes to a fresh file and opens it for
// reading.
func testFile(t *testing.T, n int) (*os.File, []byte) {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	path := filepath.Join(t.TempDir(), "range")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, data
}

// linkUp fails the test if the writer took its link to rank 1 down.
func linkUp(t *testing.T, l fileLink) {
	t.Helper()
	if err := linkErrOf(l.send); err != nil || l.send.(PeerChecker).PeerLost(1) {
		t.Fatalf("%s: link to rank 1 went down (link error %v)", l.name, err)
	}
}

// TestFileFrameMatchesWrite: a file frame is byte for byte the frame
// SendVec writes for the same header and bytes, and went by sendfile.
func TestFileFrameMatchesWrite(t *testing.T) {
	f, data := testFile(t, 1<<20)
	hdr := []byte("sub-data header")
	for _, l := range fileLinks(t) {
		for _, r := range [][2]int{{0, 0}, {3, 100}, {4096, 300 << 10}, {1, 1<<20 - 1}} {
			off, n := r[0], r[1]
			zc, err := l.send.SendFile(1, 7, hdr, f, int64(off), n)
			if err != nil || zc != zeroCopyFiles {
				t.Fatalf("%s: SendFile(%d, %d) = %v, %v", l.name, off, n, zc, err)
			}
			fileFrame := readRawFrame(t, l.wire)
			SendSegments(l.send, 1, 7, hdr, data[off:off+n])
			if vecFrame := readRawFrame(t, l.wire); !bytes.Equal(fileFrame, vecFrame) {
				t.Fatalf("%s: %d bytes at %d: the file frame (%d bytes) differs from the vector frame (%d bytes)",
					l.name, n, off, len(fileFrame), len(vecFrame))
			}
		}
		linkUp(t, l)
	}
}

// slowReader reads chunk bytes a call and pauses every few calls: a
// client that drains its socket slower than the server fills it.
type slowReader struct {
	r     io.Reader
	chunk int
	calls int
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.calls++; s.calls%16 == 0 {
		time.Sleep(time.Millisecond)
	}
	return s.r.Read(p[:min(len(p), s.chunk)])
}

// TestFileFrameWaitsOutAFullSocket: with a small send buffer and a slow
// reader the kernel takes a 4 MiB range a little at a time; the writer
// waits on the poller between sendfile calls (it cannot have finished
// while nothing was read) and the frame arrives intact. "Small" stays
// above loopback's 64 KiB segment: a send buffer below one segment
// makes TCP itself crawl, sendfile or not.
func TestFileFrameWaitsOutAFullSocket(t *testing.T) {
	const n = 4 << 20
	f, data := testFile(t, n)
	hdr := []byte("slow")
	for _, l := range fileLinks(t) {
		if err := l.sock().SetWriteBuffer(128 << 10); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := l.send.SendFile(1, 7, hdr, f, 0, n)
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("%s: a 4 MiB frame went into a full socket nobody read (err %v)", l.name, err)
		case <-time.After(100 * time.Millisecond):
		}
		frame := readRawFrame(t, &slowReader{r: l.wire, chunk: 16 << 10})
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if !bytes.Equal(frame[frameHeaderBytes:frameHeaderBytes+len(hdr)], hdr) || !bytes.Equal(frame[frameHeaderBytes+len(hdr):], data) {
			t.Fatalf("%s: the frame arrived damaged", l.name)
		}
		linkUp(t, l)
	}
}

// TestFileAndVectorFramesNeverInterleave: goroutines sending file frames
// and vector frames to one destination at once each get their frame onto
// the socket whole — run it under -race.
func TestFileAndVectorFramesNeverInterleave(t *testing.T) {
	const senders, frames = 4, 16
	f, data := testFile(t, 512<<10)
	span := func(g, i int) (off, n int) {
		return (g*7919 + i*4099) % (256 << 10), 1 + (g*31+i)*3001%(200<<10)
	}
	for _, l := range fileLinks(t) {
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					off, n := span(g, i)
					hdr := []byte{byte(g), byte(i)}
					if i%2 == 0 {
						l.send.SendFile(1, 7, hdr, f, int64(off), n) //nolint:errcheck // the frame is checked on arrival
					} else {
						SendSegments(l.send, 1, 7, hdr, data[off:off+n])
					}
				}
			}(g)
		}
		fr := newFrameReader(l.wire)
		for k := 0; k < senders*frames; k++ {
			_, _, _, payload, err := fr.next()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", l.name, k, err)
			}
			off, n := span(int(payload[0]), int(payload[1]))
			if !bytes.Equal(payload[2:], data[off:off+n]) {
				t.Fatalf("%s: frame %d of sender %d: %d bytes, not its %d", l.name, payload[1], payload[0], len(payload)-2, n)
			}
			bufpool.Put(payload)
		}
		wg.Wait()
		linkUp(t, l)
	}
}

// TestFileFrameZeroAlloc: a file frame allocates nothing on any writer —
// the raw socket and the sendfile callback are made once and kept.
func TestFileFrameZeroAlloc(t *testing.T) {
	f, _ := testFile(t, 64<<10)
	hdr := make([]byte, 25)
	for _, l := range fileLinks(t) {
		go func(wire net.Conn) {
			buf := make([]byte, 64<<10)
			for {
				if _, err := wire.Read(buf); err != nil {
					return
				}
			}
		}(l.wire)
		if n := testing.AllocsPerRun(200, func() { l.send.SendFile(1, 7, hdr, f, 512, 4<<10) }); n != 0 {
			t.Errorf("%s: a file frame allocates %v times", l.name, n)
		}
		linkUp(t, l)
	}
}

// TestShortFileFrameStaysWhole: a range running past the end of the file
// goes out as the bytes the file holds and zeros, is reported as
// ErrShortFile, and leaves the link up — the next frame arrives intact.
func TestShortFileFrameStaysWhole(t *testing.T) {
	f, data := testFile(t, 1000)
	hdr := []byte("h")
	for _, l := range fileLinks(t) {
		l.wire.SetReadDeadline(time.Now().Add(10 * time.Second)) // a frame left short never completes
		zc, err := l.send.SendFile(1, 7, hdr, f, 600, 1000)
		if !errors.Is(err, ErrShortFile) || zc != zeroCopyFiles {
			t.Fatalf("%s: SendFile past the end of the file = %v, %v; want ErrShortFile", l.name, zc, err)
		}
		want := append(append(append([]byte(nil), hdr...), data[600:]...), make([]byte, 600)...)
		if got := readRawFrame(t, l.wire); !bytes.Equal(got[frameHeaderBytes:], want) {
			t.Fatalf("%s: short frame arrived as %d bytes, want %d: the range's bytes then zeros", l.name, len(got)-frameHeaderBytes, len(want))
		}
		l.send.Send(1, 8, []byte("after"))
		if got := readRawFrame(t, l.wire); !bytes.Equal(got[frameHeaderBytes:], []byte("after")) {
			t.Fatalf("%s: the frame after a short one arrived as %q", l.name, got)
		}
		linkUp(t, l)
	}
}

// TestFileFrameIntoAMailboxIsOnePooledCopy: where the destination's
// mailbox is in this process — hub-local to hub-local — the range is
// read once, into one pooled frame the mailbox owns.
func TestFileFrameIntoAMailboxIsOnePooledCopy(t *testing.T) {
	f, data := testFile(t, 64<<10)
	hdr := []byte("hdr")
	hub := startHub(t, 2)
	a, err := hub.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseComm(a)
	b, err := hub.Local(1)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseComm(b)

	got0, _, _ := bufpool.Stats()
	zc, err := a.(FileComm).SendFile(1, 7, hdr, f, 100, 5000)
	got1, _, _ := bufpool.Stats()
	if zc || err != nil {
		t.Fatalf("SendFile = %v, %v; want a copy and no error", zc, err)
	}
	if got1-got0 != 1 {
		t.Errorf("a file frame into a mailbox took %d pooled buffers, want 1", got1-got0)
	}
	m, err := b.(DeadlineComm).RecvTimeout(0, 7, 5*time.Second)
	if err != nil || !bytes.Equal(m.Data, append(append([]byte(nil), hdr...), data[100:5100]...)) {
		t.Fatalf("received %d bytes, %v", len(m.Data), err)
	}
	bufpool.Put(m.Data)
}
