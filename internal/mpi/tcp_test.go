package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// worldShape says, per rank of a hub world, whether the rank attaches
// in-process (Hub.Local) rather than dialing. The hub's contract is the
// same for every shape, so its conformance tests run over all of them:
// every (source, destination) pairing of the two endpoint kinds.
type worldShape []bool

func (w worldShape) String() string {
	b := make([]byte, len(w))
	for r, local := range w {
		b[r] = 'D'
		if local {
			b[r] = 'L'
		}
	}
	return string(b)
}

// allShapes lists the 2^size shapes of a world, all-dialed first.
func allShapes(size int) []worldShape {
	shapes := make([]worldShape, 1<<size)
	for mask := range shapes {
		shapes[mask] = make(worldShape, size)
		for r := range shapes[mask] {
			shapes[mask][r] = mask&(1<<r) != 0
		}
	}
	return shapes
}

// attach gives rank r of a size-rank world an endpoint of either kind.
func attach(hub *Hub, local bool, r, size int) (Comm, error) {
	if local {
		return hub.Local(r)
	}
	return DialComm(hub.Addr(), r, size)
}

// startHub runs a hub on localhost until the test ends.
func startHub(t testing.TB, size int) *Hub {
	t.Helper()
	hub, err := ListenHub("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hub.Serve() }()
	t.Cleanup(func() {
		hub.Close()
		if err := <-done; err != nil {
			t.Errorf("hub: %v", err)
		}
	})
	return hub
}

// startHubWorld starts a hub and attaches one endpoint per rank, of the
// kinds the shape names, before returning: each attach returns once the
// hub has registered the rank, and the hub drops a frame for a rank that
// has not attached, so no rank may send before the last is in. The
// endpoints and the hub close when the test ends.
func startHubWorld(t *testing.T, shape worldShape) (*Hub, []Comm) {
	t.Helper()
	hub := startHub(t, len(shape))
	comms := make([]Comm, len(shape))
	for r, local := range shape {
		c, err := attach(hub, local, r, len(shape))
		if err != nil {
			t.Fatalf("rank %d attach: %v", r, err)
		}
		comms[r] = c
		t.Cleanup(func() { CloseComm(c) })
	}
	return hub, comms
}

func runTCPWorld(t *testing.T, size int, fn func(Comm)) {
	t.Helper()
	runHubWorld(t, make(worldShape, size), fn)
}

func runHubWorld(t *testing.T, shape worldShape, fn func(Comm)) {
	t.Helper()
	_, comms := startHubWorld(t, shape)
	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// forEachShape runs fn as a subtest per shape of a size-rank world.
func forEachShape(t *testing.T, size int, fn func(t *testing.T, shape worldShape)) {
	for _, shape := range allShapes(size) {
		t.Run(shape.String(), func(t *testing.T) { fn(t, shape) })
	}
}

func TestTCPSendRecv(t *testing.T) {
	runTCPWorld(t, 2, func(c Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("over the wire"))
		} else {
			m := c.Recv(0, 5)
			if string(m.Data) != "over the wire" || m.Source != 0 || m.Tag != 5 {
				t.Errorf("got %+v", m)
			}
		}
	})
}

func TestTCPZeroTagAndEmptyPayload(t *testing.T) {
	// Tag 0 and nil payloads must survive the framing (tag is stored
	// +1 on the wire).
	forEachShape(t, 2, func(t *testing.T, shape worldShape) {
		runHubWorld(t, shape, func(c Comm) {
			if c.Rank() == 0 {
				c.Send(1, 0, nil)
			} else {
				m := c.Recv(0, 0)
				if m.Tag != 0 || len(m.Data) != 0 {
					t.Errorf("got %+v", m)
				}
			}
		})
	})
}

func TestTCPLargeMessage(t *testing.T) {
	payload := bytes.Repeat([]byte{0xC3}, 4<<20)
	runTCPWorld(t, 2, func(c Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, payload)
		} else {
			m := c.Recv(0, 1)
			if !bytes.Equal(m.Data, payload) {
				t.Error("4 MB payload corrupted in transit")
			}
		}
	})
}

func TestTCPOrderingPerPair(t *testing.T) {
	const n = 200
	runTCPWorld(t, 2, func(c Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				m := c.Recv(0, 3)
				if m.Data[0] != byte(i) {
					t.Fatalf("message %d arrived out of order (%d)", i, m.Data[0])
				}
			}
		}
	})
}

func TestTCPManyToOne(t *testing.T) {
	const size = 8
	runTCPWorld(t, size, func(c Comm) {
		if c.Rank() == 0 {
			seen := make(map[int]int)
			for i := 0; i < (size-1)*10; i++ {
				m := c.Recv(AnySource, AnyTag)
				seen[m.Source]++
			}
			for r := 1; r < size; r++ {
				if seen[r] != 10 {
					t.Errorf("rank %d delivered %d of 10", r, seen[r])
				}
			}
		} else {
			for i := 0; i < 10; i++ {
				c.Send(0, i, []byte{byte(c.Rank())})
			}
		}
	})
}

// helloBytes is a 12-byte hello: magic, rank (or session version), size.
func helloBytes(magic uint32, rank, size int) []byte {
	var hello [12]byte
	binary.BigEndian.PutUint32(hello[0:], magic)
	binary.BigEndian.PutUint32(hello[4:], uint32(rank))
	binary.BigEndian.PutUint32(hello[8:], uint32(size))
	return hello[:]
}

// sendHello opens a raw connection to hub, writes first and half-closes
// it, and returns everything the hub sent back before closing its end —
// the ack first, if the hello was accepted.
func sendHello(t testing.TB, hub *Hub, first []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil && !isDisconnect(err) {
		t.Fatalf("the hub neither acknowledged nor closed the connection: %v", err)
	}
	return got
}

// expectRefused: the hub closes a connection opening with hello without
// acknowledging it...
func expectRefused(t *testing.T, hub *Hub, hello []byte) {
	t.Helper()
	if got := sendHello(t, hub, hello); len(got) != 0 {
		t.Fatalf("the hub answered the hello with %d bytes, want none", len(got))
	}
}

// ...and keeps serving: it registers a well-formed rank 0 and routes it
// a frame from rank 1, whose holder is one (a fresh local endpoint when
// nil).
func expectServing(t testing.TB, hub *Hub, one Comm) {
	t.Helper()
	if one == nil {
		var err error
		if one, err = hub.Local(1); err != nil {
			t.Fatal(err)
		}
		defer CloseComm(one)
	}
	zero, err := DialComm(hub.Addr(), 0, 2)
	if err != nil {
		t.Fatalf("the hub refused a well-formed rank: %v", err)
	}
	defer CloseComm(zero)
	one.Send(0, 4, []byte("served"))
	if m, err := zero.(DeadlineComm).RecvTimeout(1, 4, 10*time.Second); err != nil || string(m.Data) != "served" {
		t.Fatalf("the hub did not route to the new rank: %q, %v", m.Data, err)
	}
}

func TestTCPHubRejectsWrongWorldSize(t *testing.T) {
	hub := startHub(t, 2)
	expectRefused(t, hub, helloBytes(tcpMagic, 0, 3))
	expectServing(t, hub, nil)
}

// TestTCPHubRejectsDuplicateRank: a hello for a rank a live connection
// holds is refused once the holder has had its ~2 s to disconnect.
func TestTCPHubRejectsDuplicateRank(t *testing.T) {
	hub := startHub(t, 2)
	holder, err := DialComm(hub.Addr(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseComm(holder)
	expectRefused(t, hub, helloBytes(tcpMagic, 1, 2))
	expectServing(t, hub, holder)
}

func TestTCPDialValidatesRank(t *testing.T) {
	if _, err := DialComm("127.0.0.1:1", 5, 2); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestTCPHubRejectsBadMagic(t *testing.T) {
	hub := startHub(t, 2)
	expectRefused(t, hub, helloBytes(0xDEADBEEF, 0, 2))
	expectServing(t, hub, nil)
}

func TestTCPHubRejectsOutOfRangeRank(t *testing.T) {
	hub := startHub(t, 2)
	expectRefused(t, hub, helloBytes(tcpMagic, 7, 2)) // rank 7 of a 2-rank world
	expectServing(t, hub, nil)
}

// FuzzHubHello feeds arbitrary first bytes to a fresh hub connection
// (rank 1 held locally): the hub never panics, acknowledges exactly the
// well-formed hello for the one free rank, and afterwards still
// registers a well-formed rank and routes it a frame.
func FuzzHubHello(f *testing.F) {
	f.Add(helloBytes(tcpMagic, 0, 3))                                   // wrong world size
	f.Add(helloBytes(tcpMagic, 1, 2))                                   // duplicate rank
	f.Add(helloBytes(0xDEADBEEF, 0, 2))                                 // bad magic
	f.Add(helloBytes(tcpMagic, 7, 2))                                   // out-of-range rank
	f.Add(helloBytes(sessionMagic, 1, 0))                               // a session, with no handler
	f.Add(append(helloBytes(tcpMagic, 0, 2), rawHeader(0, 0, 6, 2)...)) // a rank that sends itself a short frame
	f.Fuzz(func(t *testing.T, first []byte) {
		hub := startHub(t, 2)
		one, err := hub.Local(1)
		if err != nil {
			t.Fatal(err)
		}
		defer CloseComm(one)
		valid := len(first) >= 12 && binary.BigEndian.Uint32(first) == tcpMagic &&
			binary.BigEndian.Uint32(first[4:]) == 0 && binary.BigEndian.Uint32(first[8:]) == 2
		got := sendHello(t, hub, first)
		if acked := len(got) >= 4 && binary.BigEndian.Uint32(got) == tcpMagic; acked != valid || !valid && len(got) > 0 {
			t.Fatalf("hello % x: the hub answered % x", first[:min(len(first), 12)], got[:min(len(got), 16)])
		}
		expectServing(t, hub, one)
	})
}

func TestTCPPeerDisconnectSurfacesErrPeerLost(t *testing.T) {
	// Rank 2 dies mid-operation. A bounded receive on rank 0 waiting
	// specifically for rank 2 must fail with ErrPeerLost — well before
	// its generous bound — rather than hang. Whether the dead rank and
	// the observer are dialed or local must not matter.
	forEachShape(t, 3, func(t *testing.T, shape worldShape) {
		_, comms := startHubWorld(t, shape)
		if err := CloseComm(comms[2]); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err := comms[0].(DeadlineComm).RecvTimeout(2, 5, time.Minute)
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("err = %v, want ErrPeerLost", err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("took %v, death notification should be prompt", elapsed)
		}
		if !comms[0].(PeerChecker).PeerLost(2) {
			t.Fatal("PeerLost(2) = false after disconnect")
		}
		// Survivors keep communicating.
		comms[1].Send(0, 9, []byte("still here"))
		m, err := comms[0].(DeadlineComm).RecvTimeout(1, 9, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(m.Data) != "still here" {
			t.Fatalf("got %q", m.Data)
		}
		// The dead rank's own bounded receives fail too, and its sends
		// are dropped rather than delivered in the rank's name.
		if _, err := comms[2].(DeadlineComm).RecvTimeout(AnySource, 9, 5*time.Second); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("closed endpoint: err = %v, want ErrPeerLost", err)
		}
		comms[2].Send(0, 9, []byte("from the grave"))
		if _, err := comms[0].(DeadlineComm).RecvTimeout(AnySource, 9, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("a closed endpoint's send was delivered (err = %v)", err)
		}
		// Tear down the rest; the hub exits once every rank is gone.
		CloseComm(comms[0])
		CloseComm(comms[1])
	})
}

func TestTCPDeathNotificationDoesNotDropQueuedMessages(t *testing.T) {
	// Messages delivered before the peer died must still be receivable.
	_, comms := startHubWorld(t, make(worldShape, 2))
	comms[1].Send(0, 4, []byte("parting gift"))
	// Give the hub a moment to forward before the disconnect.
	dc := comms[0].(DeadlineComm)
	if _, err := dc.RecvTimeout(1, 4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	comms[1].Send(0, 4, []byte("second"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if comms[0].(PeerChecker).PeerLost(1) {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	CloseComm(comms[1])
	// The queued message beats the death frame (same connection,
	// ordered), so it must be returned before ErrPeerLost.
	m, err := dc.RecvTimeout(1, 4, 5*time.Second)
	if err != nil {
		t.Fatalf("queued message lost: %v", err)
	}
	if string(m.Data) != "second" {
		t.Fatalf("got %q", m.Data)
	}
	if _, err := dc.RecvTimeout(1, 4, 5*time.Second); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("err = %v, want ErrPeerLost", err)
	}
	CloseComm(comms[0])
}

func TestTCPStress(t *testing.T) {
	// All-pairs chatter with mixed tags and sizes. Message i of a pair
	// is i*100 bytes long, so a receive that matches out of order within
	// its (source, tag) stream shows as a wrong length.
	const size = 4
	forEachShape(t, size, func(t *testing.T, shape worldShape) {
		runHubWorld(t, shape, func(c Comm) {
			for peer := 0; peer < size; peer++ {
				if peer == c.Rank() {
					continue
				}
				for i := 0; i < 20; i++ {
					c.Send(peer, i%3, bytes.Repeat([]byte{byte(c.Rank())}, i*100))
				}
			}
			for peer := 0; peer < size; peer++ {
				if peer == c.Rank() {
					continue
				}
				for i := 0; i < 20; i++ {
					m := c.Recv(peer, i%3)
					if len(m.Data) != i*100 {
						t.Errorf("message %d from %d is %d bytes: out of order", i, peer, len(m.Data))
					}
					if len(m.Data) != 0 && m.Data[0] != byte(peer) {
						t.Errorf("payload from %d carries %d", peer, m.Data[0])
					}
				}
			}
		})
	})
}

// TestHubRegistrationIsSynchronous: a rank whose DialComm has returned
// is registered at the hub, so ranks dialed back to back from one
// goroutine can be addressed at once. The hub drops frames for an
// unregistered rank, so without the hello ack the last rank loses the
// first frame sent to it.
func TestHubRegistrationIsSynchronous(t *testing.T) {
	const size, rounds = 4, 200
	for round := 0; round < rounds; round++ {
		hub, err := ListenHub("127.0.0.1:0", size)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- hub.Serve() }()
		comms := make([]Comm, size)
		for r := range comms {
			if comms[r], err = DialComm(hub.Addr(), r, size); err != nil {
				t.Fatalf("round %d rank %d: %v", round, r, err)
			}
		}
		comms[0].Send(size-1, 7, []byte{byte(round)})
		m, err := comms[size-1].(DeadlineComm).RecvTimeout(0, 7, 10*time.Second)
		if err != nil {
			t.Fatalf("round %d: first frame lost: %v", round, err)
		}
		if m.Data[0] != byte(round) {
			t.Fatalf("round %d: got %v", round, m.Data)
		}
		for _, c := range comms {
			CloseComm(c)
		}
		hub.Close()
		if err := <-done; err != nil {
			t.Fatalf("round %d: hub: %v", round, err)
		}
	}
}

// TestHubCloseSeversSilentConn: a connection that never sends its hello
// (a port probe, a client killed between connect and hello) does not
// keep Serve from returning after Close.
func TestHubCloseSeversSilentConn(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hub.Serve() }()
	silent, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The hub accepts in order: once a later rank is registered, the
	// silent connection has been accepted and is waiting on its hello.
	c, err := DialComm(hub.Addr(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseComm(c)
	hub.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("hub: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve still running 1 s after Close: a silent connection holds it")
	}
}

// TestTCPSendOnClosedLinkIsTypedNotFatal closes a rank's connection
// under a stream of in-flight writes: the writer must not panic, and
// both ends must see ErrPeerLost from their bounded receives.
func TestTCPSendOnClosedLinkIsTypedNotFatal(t *testing.T) {
	_, comms := startHubWorld(t, make(worldShape, 2))
	payload := make([]byte, 1<<20)
	started := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 64; i++ {
			if i == 1 {
				close(started)
			}
			comms[0].Send(1, 3, payload)
			SendSegments(comms[0], 1, 3, payload[:16], payload)
		}
	}()
	<-started
	CloseComm(comms[0])
	<-finished // a panic in the sender would have killed the test binary
	if _, err := comms[0].(DeadlineComm).RecvTimeout(AnySource, 9, 5*time.Second); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("sender: err = %v, want ErrPeerLost", err)
	}
	if _, err := comms[1].(DeadlineComm).RecvTimeout(0, 9, 5*time.Second); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("receiver: err = %v, want ErrPeerLost", err)
	}
	CloseComm(comms[1])
}

// TestHubTeardownEveryOrder closes the ranks of a world in every order
// while each still has unread frames (data and, for all but the first
// to close, death announcements) in its socket buffer. The kernel
// answers such a close with a reset; the hub must treat it as the
// disconnect it is, keep routing for the others, and free every rank.
func TestHubTeardownEveryOrder(t *testing.T) {
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	forEachShape(t, 3, func(t *testing.T, shape worldShape) {
		for _, order := range orders {
			for round := 0; round < 10; round++ {
				hub, comms := startHubWorld(t, shape)
				for _, c := range comms {
					for peer := range comms {
						if peer != c.Rank() {
							for i := 0; i < 8; i++ {
								c.Send(peer, i, bytes.Repeat([]byte{1}, 4096))
							}
						}
					}
				}
				// One delivery proves the hub is routing before teardown starts;
				// everything else stays unread.
				comms[order[2]].Recv(order[0], 0)
				for _, r := range order {
					CloseComm(comms[r])
				}
				waitVacant(t, hub)
			}
		}
	})
}

// waitVacant polls until the hub holds no rank.
func waitVacant(t *testing.T, hub *Hub) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		held := 0
		hub.mu.Lock()
		for _, s := range hub.ranks.slots {
			if s.holder != (holder{}) {
				held++
			}
		}
		hub.mu.Unlock()
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d rank(s) still held 10 s after every endpoint closed", held)
		}
		time.Sleep(time.Millisecond)
	}
}
