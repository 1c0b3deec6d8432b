package mpi

import (
	"errors"
	"testing"
	"time"
)

// Hub-local endpoints share the dialed endpoints' conformance tests
// (tcp_test.go runs them over every world shape); here are the
// behaviours that need a rank to change hands.

// waitPeerLost polls until c's view of rank matches want.
func waitPeerLost(t *testing.T, c Comm, rank int, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.(PeerChecker).PeerLost(rank) != want {
		if time.Now().After(deadline) {
			t.Fatalf("rank %d: PeerLost(%d) never became %v", c.Rank(), rank, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHubRevivalAfterReattach: rank 1 leaves the hub and a new
// endpoint takes the rank. The observer on rank 0 sees the death, then
// the revival, then talks to the newcomer — for every combination of
// observer, first holder and second holder being dialed or local.
func TestHubRevivalAfterReattach(t *testing.T) {
	forEachShape(t, 3, func(t *testing.T, kinds worldShape) {
		hub := startHub(t, 2)
		mustAttach := func(local bool, rank int) Comm {
			c, err := attach(hub, local, rank, 2)
			if err != nil {
				t.Fatalf("attach rank %d: %v", rank, err)
			}
			return c
		}
		observer := mustAttach(kinds[0], 0)
		defer CloseComm(observer)
		first := mustAttach(kinds[1], 1)
		first.Send(0, 1, []byte("first"))
		if m, err := observer.(DeadlineComm).RecvTimeout(1, 1, 10*time.Second); err != nil || string(m.Data) != "first" {
			t.Fatalf("before the handover: %q, %v", m.Data, err)
		}
		CloseComm(first)
		waitPeerLost(t, observer, 1, true)
		if _, err := observer.(DeadlineComm).RecvTimeout(1, 1, time.Minute); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("err = %v, want ErrPeerLost", err)
		}

		second := mustAttach(kinds[2], 1)
		defer CloseComm(second)
		waitPeerLost(t, observer, 1, false)
		observer.Send(1, 2, []byte("welcome"))
		if m, err := second.(DeadlineComm).RecvTimeout(0, 2, 10*time.Second); err != nil || string(m.Data) != "welcome" {
			t.Fatalf("to the new holder: %q, %v", m.Data, err)
		}
		second.Send(0, 1, []byte("second"))
		if m, err := observer.(DeadlineComm).RecvTimeout(1, 1, 10*time.Second); err != nil || string(m.Data) != "second" {
			t.Fatalf("from the new holder: %q, %v", m.Data, err)
		}
	})
}

// TestHubRejectsDuplicateRankAcrossKinds: a rank has one holder, of
// either kind. A hello for a rank held locally is refused, a local
// attach for a rank held by a connection (or by another local endpoint)
// is refused, and the holder keeps working.
func TestHubRejectsDuplicateRankAcrossKinds(t *testing.T) {
	t.Run("dial onto local", func(t *testing.T) {
		hub := startHub(t, 2)
		holder, err := hub.Local(1)
		if err != nil {
			t.Fatal(err)
		}
		defer CloseComm(holder)
		if c, err := DialComm(hub.Addr(), 1, 2); err == nil {
			CloseComm(c)
			t.Fatal("hub acknowledged a hello for a rank held locally")
		}
		if _, err := hub.Local(1); err == nil {
			t.Fatal("hub attached two local endpoints to one rank")
		}
		peer, err := DialComm(hub.Addr(), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer CloseComm(peer)
		peer.Send(1, 4, []byte("still yours"))
		if _, err := holder.(DeadlineComm).RecvTimeout(0, 4, 10*time.Second); err != nil {
			t.Fatalf("holder lost its rank: %v", err)
		}
	})
	t.Run("local onto dialed", func(t *testing.T) {
		// The hub first gives a dialed holder ~2 s to finish disconnecting.
		hub, comms := startHubWorld(t, worldShape{true, false})
		if _, err := hub.Local(1); err == nil {
			t.Fatal("hub attached a local endpoint to a rank held by a connection")
		}
		comms[0].Send(1, 4, []byte("still yours"))
		if _, err := comms[1].(DeadlineComm).RecvTimeout(0, 4, 10*time.Second); err != nil {
			t.Fatalf("holder lost its rank: %v", err)
		}
	})
}

// TestHubCloseFailsLocalReceives: closing the hub fails a local
// endpoint's bounded receives, as it does a dialed endpoint's.
func TestHubCloseFailsLocalReceives(t *testing.T) {
	hub := startHub(t, 1)
	c, err := hub.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	failed := make(chan error, 1)
	go func() {
		_, err := c.(DeadlineComm).RecvTimeout(AnySource, 1, time.Minute)
		failed <- err
	}()
	hub.Close()
	if err := <-failed; !errors.Is(err, ErrPeerLost) {
		t.Fatalf("err = %v, want ErrPeerLost", err)
	}
}
