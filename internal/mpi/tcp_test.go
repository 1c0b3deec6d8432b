package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTCPWorld spins up a hub and one dialed endpoint per rank on
// localhost.
func startTCPWorld(t *testing.T, size int) ([]Comm, func()) {
	t.Helper()
	return startHubWorld(t, make(worldShape, size))
}

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

// startHubWorld spins up a static hub on localhost and one endpoint per
// rank, of the kinds the shape names.
func startHubWorld(t *testing.T, shape worldShape) ([]Comm, func()) {
	t.Helper()
	size := len(shape)
	hub, err := ListenHub("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]Comm, size)
	errs := make([]error, size)
	for r, local := range shape { // local ranks count as joined once Serve runs
		if local {
			comms[r], errs[r] = attach(hub, shape[r], r, size)
		}
	}
	hubErr := make(chan error, 1)
	go func() { hubErr <- hub.Serve() }()

	var wg sync.WaitGroup
	for r, local := range shape {
		if local {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], errs[r] = attach(hub, shape[r], r, size)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d attach: %v", r, err)
		}
	}
	cleanup := func() {
		for _, c := range comms {
			CloseComm(c)
		}
		if err := <-hubErr; err != nil {
			t.Errorf("hub: %v", err)
		}
	}
	return comms, cleanup
}

func runTCPWorld(t *testing.T, size int, fn func(Comm)) {
	t.Helper()
	runHubWorld(t, make(worldShape, size), fn)
}

func runHubWorld(t *testing.T, shape worldShape, fn func(Comm)) {
	t.Helper()
	comms, cleanup := startHubWorld(t, shape)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(comms[r])
		}(r)
	}
	wg.Wait()
	cleanup()
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

func TestTCPHubRejectsWrongWorldSize(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hub.Serve() }()
	if _, err := DialComm(hub.Addr(), 0, 3); err != nil {
		// Dial itself may succeed (handshake is one-way); the hub
		// must fail.
		t.Logf("dial error (acceptable): %v", err)
	}
	if err := <-done; err == nil {
		t.Fatal("hub accepted mismatched world size")
	}
}

func TestTCPHubRejectsDuplicateRank(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hub.Serve() }()
	c1, err := DialComm(hub.Addr(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer CloseComm(c1)
	c2, err := DialComm(hub.Addr(), 1, 2)
	if err == nil {
		defer CloseComm(c2)
	}
	if err := <-done; err == nil {
		t.Fatal("hub accepted duplicate rank")
	}
}

func TestTCPDialValidatesRank(t *testing.T) {
	if _, err := DialComm("127.0.0.1:1", 5, 2); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestTCPHubRejectsBadMagic(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hub.Serve() }()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [12]byte
	binary.BigEndian.PutUint32(hello[0:], 0xDEADBEEF)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("hub accepted bad magic: %v", err)
	}
}

func TestTCPHubRejectsOutOfRangeRank(t *testing.T) {
	hub, err := ListenHub("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hub.Serve() }()
	conn, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [12]byte
	binary.BigEndian.PutUint32(hello[0:], tcpMagic)
	binary.BigEndian.PutUint32(hello[4:], 7) // rank 7 of a 2-rank world
	binary.BigEndian.PutUint32(hello[8:], 2)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("hub accepted out-of-range rank")
	}
}

func TestTCPPeerDisconnectSurfacesErrPeerLost(t *testing.T) {
	// Rank 2 dies mid-operation. A bounded receive on rank 0 waiting
	// specifically for rank 2 must fail with ErrPeerLost — well before
	// its generous bound — rather than hang. Whether the dead rank and
	// the observer are dialed or local must not matter.
	forEachShape(t, 3, func(t *testing.T, shape worldShape) {
		comms, _ := startHubWorld(t, shape)
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
	comms, _ := startTCPWorld(t, 2)
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
// goroutine can be addressed at once. A dynamic hub drops frames for an
// unregistered rank, so without the hello ack the last rank loses the
// first frame sent to it.
func TestHubRegistrationIsSynchronous(t *testing.T) {
	const size, rounds = 4, 200
	for _, dynamic := range []bool{true, false} {
		for round := 0; round < rounds; round++ {
			hub, err := ListenHub("127.0.0.1:0", size)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			if dynamic {
				go func() { done <- hub.ServeDynamic(nil) }()
			} else {
				go func() { done <- hub.Serve() }()
			}
			comms := make([]Comm, size)
			for r := range comms {
				if comms[r], err = DialComm(hub.Addr(), r, size); err != nil {
					t.Fatalf("dynamic=%v round %d rank %d: %v", dynamic, round, r, err)
				}
			}
			comms[0].Send(size-1, 7, []byte{byte(round)})
			m, err := comms[size-1].(DeadlineComm).RecvTimeout(0, 7, 10*time.Second)
			if err != nil {
				t.Fatalf("dynamic=%v round %d: first frame lost: %v", dynamic, round, err)
			}
			if m.Data[0] != byte(round) {
				t.Fatalf("dynamic=%v round %d: got %v", dynamic, round, m.Data)
			}
			for _, c := range comms {
				CloseComm(c)
			}
			if dynamic {
				hub.Close()
			}
			if err := <-done; err != nil {
				t.Fatalf("dynamic=%v round %d: hub: %v", dynamic, round, err)
			}
		}
	}
}

// TestTCPSendOnClosedLinkIsTypedNotFatal closes a rank's connection
// under a stream of in-flight writes: the writer must not panic, and
// both ends must see ErrPeerLost from their bounded receives.
func TestTCPSendOnClosedLinkIsTypedNotFatal(t *testing.T) {
	comms, _ := startTCPWorld(t, 2)
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

// TestHubTeardownEveryOrder closes the ranks of a static world in every
// order while each still has unread frames (data and, for all but the
// first to close, death announcements) in its socket buffer. The kernel
// answers such a close with a reset; the hub must treat it as the
// disconnect it is, keep routing for the others, and exit cleanly.
func TestHubTeardownEveryOrder(t *testing.T) {
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	forEachShape(t, 3, func(t *testing.T, shape worldShape) {
		for _, order := range orders {
			for round := 0; round < 10; round++ {
				comms, cleanup := startHubWorld(t, shape)
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
				cleanup() // closes again (harmless) and fails the test on a hub error
			}
		}
	})
}
