package mpi

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"panda/internal/vtime"
)

// exerciseSendVec drives one sender/receiver pair through SendSegments
// and checks that (a) the receiver sees the exact concatenation as one
// message, and (b) mutating the caller's segments immediately after the
// send never corrupts a delivery — the borrow contract every transport
// must honor.
func exerciseSendVec(t *testing.T, send, recv Comm) {
	t.Helper()
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hdr := make([]byte, 9)
		payload := make([]byte, 1024)
		for i := 0; i < rounds; i++ {
			for j := range hdr {
				hdr[j] = byte(i)
			}
			for j := range payload {
				payload[j] = byte(i + j)
			}
			SendSegments(send, recv.Rank(), 7, hdr, payload)
			// The segments are ours again the moment the call returns.
			for j := range hdr {
				hdr[j] = 0xEE
			}
			for j := range payload {
				payload[j] = 0xEE
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		m := recv.Recv(send.Rank(), 7)
		if len(m.Data) != 9+1024 {
			t.Fatalf("round %d: got %d bytes, want %d", i, len(m.Data), 9+1024)
		}
		for j := 0; j < 9; j++ {
			if m.Data[j] != byte(i) {
				t.Fatalf("round %d: header byte %d = %#x, want %#x", i, j, m.Data[j], byte(i))
			}
		}
		for j := 0; j < 1024; j++ {
			if m.Data[9+j] != byte(i+j) {
				t.Fatalf("round %d: payload byte %d corrupted", i, j)
			}
		}
	}
	wg.Wait()
}

func TestSendVecInproc(t *testing.T) {
	w := NewWorld(2)
	exerciseSendVec(t, w.Comm(0), w.Comm(1))
}

func TestSendVecTCP(t *testing.T) {
	// Local to local parks the message in a mailbox: it must be a copy,
	// never a view of the borrowed segments.
	forEachShape(t, 2, func(t *testing.T, shape worldShape) {
		_, comms := startHubWorld(t, shape)
		exerciseSendVec(t, comms[0], comms[1])
	})
}

func TestSendVecMesh(t *testing.T) {
	comms, cleanup := startMeshWorld(t, 2)
	defer cleanup()
	exerciseSendVec(t, comms[0], comms[1])
}

func TestSendVecMeshSelf(t *testing.T) {
	comms, cleanup := startMeshWorld(t, 1)
	defer cleanup()
	hdr := []byte{1, 2, 3}
	payload := []byte{4, 5, 6, 7}
	SendSegments(comms[0], 0, 3, hdr, payload)
	payload[0] = 0xEE
	m := comms[0].Recv(0, 3)
	if !bytes.Equal(m.Data, []byte{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("self SendVec delivered %v", m.Data)
	}
}

// TestSendVecSimCharged checks that the simulated wire charges the full
// hdr+payload length: a vector send must cost exactly what the
// equivalent flattened send costs, so enabling the fast path can never
// change virtual-time results.
func TestSendVecSimCharged(t *testing.T) {
	cfg := SP2Link()
	var flat, vec time.Duration
	for mode := 0; mode < 2; mode++ {
		sim := vtime.New()
		w := NewSimWorld(sim, 2, cfg)
		var elapsed time.Duration
		sim.Spawn("sender", func(p *vtime.Proc) {
			c := w.Bind(0, p)
			hdr := make([]byte, 32)
			payload := make([]byte, 100_000)
			if mode == 0 {
				frame := make([]byte, len(hdr)+len(payload))
				c.SendOwned(1, 5, frame)
			} else {
				SendSegments(c, 1, 5, hdr, payload)
			}
		})
		sim.Spawn("receiver", func(p *vtime.Proc) {
			c := w.Bind(1, p)
			m := c.Recv(0, 5)
			if len(m.Data) != 32+100_000 {
				t.Errorf("mode %d: got %d bytes", mode, len(m.Data))
			}
			elapsed = p.Now()
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if mode == 0 {
			flat = elapsed
		} else {
			vec = elapsed
		}
	}
	if flat != vec {
		t.Fatalf("vector send charged %v, flattened send %v — vtime results would diverge", vec, flat)
	}
}
