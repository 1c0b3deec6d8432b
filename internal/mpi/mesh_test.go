package mpi

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// startMeshWorld spins up a registry and one mesh endpoint per rank.
func startMeshWorld(t *testing.T, size int) ([]Comm, func()) {
	t.Helper()
	reg, err := ListenRegistry("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	regErr := make(chan error, 1)
	go func() { regErr <- reg.Serve() }()

	comms := make([]Comm, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], errs[r] = JoinMesh(reg.Addr(), r, size)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	if err := <-regErr; err != nil {
		t.Fatalf("registry: %v", err)
	}
	cleanup := func() {
		for _, c := range comms {
			CloseMesh(c)
		}
	}
	return comms, cleanup
}

func runMeshWorld(t *testing.T, size int, fn func(Comm)) {
	t.Helper()
	comms, cleanup := startMeshWorld(t, size)
	defer cleanup()
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(comms[r])
		}(r)
	}
	wg.Wait()
}

func TestMeshSendRecv(t *testing.T) {
	runMeshWorld(t, 2, func(c Comm) {
		if c.Rank() == 0 {
			c.Send(1, 4, []byte("direct"))
		} else {
			m := c.Recv(0, 4)
			if string(m.Data) != "direct" || m.Source != 0 {
				t.Errorf("got %+v", m)
			}
		}
	})
}

func TestMeshBidirectional(t *testing.T) {
	// Both directions get their own sockets; a ping-pong exercises
	// lazy dialing on both sides.
	runMeshWorld(t, 2, func(c Comm) {
		for i := 0; i < 10; i++ {
			if c.Rank() == 0 {
				c.Send(1, i, []byte{byte(i)})
				m := c.Recv(1, i)
				if m.Data[0] != byte(i+1) {
					t.Errorf("round %d: got %d", i, m.Data[0])
				}
			} else {
				m := c.Recv(0, i)
				c.Send(0, i, []byte{m.Data[0] + 1})
			}
		}
	})
}

func TestMeshSelfSend(t *testing.T) {
	runMeshWorld(t, 2, func(c Comm) {
		c.Send(c.Rank(), 9, []byte{42})
		m := c.Recv(c.Rank(), 9)
		if m.Data[0] != 42 || m.Source != c.Rank() {
			t.Errorf("self send: %+v", m)
		}
	})
}

func TestMeshSimultaneousAllPairs(t *testing.T) {
	// Every rank sends to every other rank at once: the directed
	// connection design must survive all lazy dials racing.
	const size = 6
	runMeshWorld(t, size, func(c Comm) {
		payload := bytes.Repeat([]byte{byte(c.Rank())}, 32<<10)
		for peer := 0; peer < size; peer++ {
			if peer != c.Rank() {
				c.Send(peer, 0, payload)
			}
		}
		for peer := 0; peer < size; peer++ {
			if peer == c.Rank() {
				continue
			}
			m := c.Recv(peer, 0)
			if len(m.Data) != 32<<10 || m.Data[0] != byte(peer) {
				t.Errorf("from %d: bad payload", peer)
			}
		}
	})
}

func TestMeshOrderingPerPair(t *testing.T) {
	const n = 300
	runMeshWorld(t, 2, func(c Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 1, []byte{byte(i), byte(i >> 8)})
			}
		} else {
			for i := 0; i < n; i++ {
				m := c.Recv(0, 1)
				if got := int(m.Data[0]) | int(m.Data[1])<<8; got != i {
					t.Fatalf("message %d arrived as %d", i, got)
				}
			}
		}
	})
}

func TestMeshRegistryRejectsWrongSize(t *testing.T) {
	reg, err := ListenRegistry("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- reg.Serve() }()
	if _, err := JoinMesh(reg.Addr(), 0, 3); err == nil {
		t.Log("join did not fail locally; registry must")
	}
	if err := <-done; err == nil {
		t.Fatal("registry accepted mismatched world size")
	}
}

func TestMeshJoinValidatesRank(t *testing.T) {
	if _, err := JoinMesh("127.0.0.1:1", 7, 3); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestMeshSendToDeadPeerIsTypedNotFatal: once a peer is gone — its
// listener closed, its sockets reset — sends to it are dropped and the
// loss surfaces as ErrPeerLost on a bounded receive, never as a panic.
func TestMeshSendToDeadPeerIsTypedNotFatal(t *testing.T) {
	comms, cleanup := startMeshWorld(t, 2)
	defer cleanup()
	comms[0].Send(1, 1, []byte("hello")) // establishes the 0 -> 1 link
	comms[1].Recv(0, 1)
	CloseMesh(comms[1])
	payload := make([]byte, 1<<20)
	for i := 0; i < 16; i++ { // enough to overrun the socket buffer of a dead reader
		comms[0].Send(1, 2, payload)
		SendSegments(comms[0], 1, 2, payload[:16], payload)
	}
	if _, err := comms[0].(DeadlineComm).RecvTimeout(1, 3, 5*time.Second); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("err = %v, want ErrPeerLost", err)
	}
}

// TestMeshBrokenInboundLinkFailsOnlyWaitsOnThatPeer: when the link a
// peer dialed breaks, a bounded wait on that peer fails with ErrPeerLost
// at once; an AnySource wait does not — another rank may still satisfy
// it — and relies on its timeout.
func TestMeshBrokenInboundLinkFailsOnlyWaitsOnThatPeer(t *testing.T) {
	comms, cleanup := startMeshWorld(t, 3)
	defer cleanup()
	comms[1].Send(0, 1, []byte("one")) // establishes the 1 -> 0 link
	comms[0].Recv(1, 1)
	CloseMesh(comms[1])

	dc := comms[0].(DeadlineComm)
	start := time.Now()
	if _, err := dc.RecvTimeout(1, 2, 30*time.Second); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("wait on the broken peer: err = %v, want ErrPeerLost", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("wait on the broken peer took %v: it sat out its timeout", waited)
	}
	if pc := comms[0].(PeerChecker); !pc.PeerLost(1) || pc.PeerLost(2) {
		t.Fatalf("PeerLost(1), PeerLost(2) = %v, %v, want true, false", pc.PeerLost(1), pc.PeerLost(2))
	}
	if _, err := dc.RecvTimeout(AnySource, 2, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("AnySource wait: err = %v, want ErrTimeout", err)
	}
	comms[2].Send(0, 2, []byte("two"))
	if m, err := dc.RecvTimeout(AnySource, 2, 30*time.Second); err != nil || m.Source != 2 {
		t.Fatalf("AnySource wait with a live sender: %+v, %v", m, err)
	}
}
