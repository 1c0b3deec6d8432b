package core

import (
	"bytes"
	"sync"
	"testing"

	"panda/internal/array"
	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// TestCollectiveIOOverTCP runs the full Panda protocol over real TCP
// sockets on localhost — the paper's network-of-workstations claim —
// and verifies a write/read round trip bit for bit.
func TestCollectiveIOOverTCP(t *testing.T) {
	cfg := Config{NumClients: 4, NumServers: 2, SubchunkBytes: 2 << 10}
	shape := []int{16, 12, 8}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Block, array.Block}, []int{2, 2, 1})
	disk := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})
	specs := []ArraySpec{{Name: "tcp", ElemSize: 4, Mem: mem, Disk: disk}}

	comms, shut, err := hubWorld(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, cfg.WorldSize())
	var wg sync.WaitGroup
	for r, comm := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer mpi.CloseComm(comm)
			if cfg.IsServer(r) {
				errs[r] = runServerNode(cfg, comm, storage.NewMemDisk())
				return
			}
			errs[r] = runClientNode(cfg, comm, func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				if err := cl.WriteArrays("", specs, bufs); err != nil {
					return err
				}
				got := makeBufs(cl, specs, false)
				if err := cl.ReadArrays("", specs, got); err != nil {
					return err
				}
				for i := range got {
					if !bytes.Equal(got[i], bufs[i]) {
						t.Errorf("client %d: TCP round trip mismatch", cl.Rank())
					}
				}
				return nil
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if err := shut(); err != nil {
		t.Fatalf("hub: %v", err)
	}
}

// hubWorld attaches every rank of cfg's world to a fresh hub on
// localhost — the ranks local names in process (Hub.Local), the rest by
// DialComm — before it returns: each attach returns once the hub has
// registered the rank, and the hub drops a frame for a rank that has not
// attached, so no rank may start before the last is in. shut closes
// every endpoint, then the hub, and returns Serve's error.
func hubWorld(cfg Config, local func(rank int) bool) (comms []mpi.Comm, shut func() error, err error) {
	hub, err := mpi.ListenHub("127.0.0.1:0", cfg.WorldSize())
	if err != nil {
		return nil, nil, err
	}
	served := make(chan error, 1)
	go func() { served <- hub.Serve() }()
	comms = make([]mpi.Comm, cfg.WorldSize())
	shut = func() error {
		for _, c := range comms {
			if c != nil {
				mpi.CloseComm(c)
			}
		}
		hub.Close()
		return <-served
	}
	for r := range comms {
		if local != nil && local(r) {
			comms[r], err = hub.Local(r)
		} else {
			comms[r], err = mpi.DialComm(hub.Addr(), r, cfg.WorldSize())
		}
		if err != nil {
			shut()
			return nil, nil, err
		}
	}
	return comms, shut, nil
}

// runClientNode and runServerNode run one node of a fixed-shape
// deployment against an arbitrary communicator, every node its own
// goroutine — how the transport tests drive the protocol over real
// sockets.
func runClientNode(cfg Config, comm mpi.Comm, app App) error {
	return clientMain(cfg, comm, clock.NewReal(), app)
}

func runServerNode(cfg Config, comm mpi.Comm, disk storage.Disk) error {
	return NewServer(cfg, comm, disk, clock.NewReal()).Serve()
}

// TestCollectiveIOOverMesh runs the protocol over the direct-connection
// mesh transport.
func TestCollectiveIOOverMesh(t *testing.T) {
	cfg := Config{NumClients: 3, NumServers: 2, SubchunkBytes: 1 << 10}
	shape := []int{12, 9}
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star}, []int{3})
	disk := array.MustSchema(shape, []array.Dist{array.Star, array.Block}, []int{2})
	specs := []ArraySpec{{Name: "mesh", ElemSize: 4, Mem: mem, Disk: disk}}

	reg, err := mpi.ListenRegistry("127.0.0.1:0", cfg.WorldSize())
	if err != nil {
		t.Fatal(err)
	}
	regErr := make(chan error, 1)
	go func() { regErr <- reg.Serve() }()

	errs := make([]error, cfg.WorldSize())
	var wg sync.WaitGroup
	for r := 0; r < cfg.WorldSize(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, err := mpi.JoinMesh(reg.Addr(), r, cfg.WorldSize())
			if err != nil {
				errs[r] = err
				return
			}
			defer mpi.CloseMesh(comm)
			if cfg.IsServer(r) {
				errs[r] = runServerNode(cfg, comm, storage.NewMemDisk())
				return
			}
			errs[r] = runClientNode(cfg, comm, func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				if err := cl.WriteArrays("", specs, bufs); err != nil {
					return err
				}
				got := makeBufs(cl, specs, false)
				if err := cl.ReadArrays("", specs, got); err != nil {
					return err
				}
				return checkBufs(cl, specs, got)
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if err := <-regErr; err != nil {
		t.Fatalf("registry: %v", err)
	}
}

// TestBackToBackOpsOverTCPNoCrossTalk regresses the operation-sequence
// tagging: on transports that only order messages per connection pair,
// operation N's Complete (relayed by the master client) can be
// overtaken by operation N+1's sub-chunk data from a server. Without
// sequence tags a client absorbs N+1's data into N's buffers. Large
// pieces and many back-to-back operations give the race room to show.
func TestBackToBackOpsOverTCPNoCrossTalk(t *testing.T) {
	cfg := Config{NumClients: 2, NumServers: 2, SubchunkBytes: 256 << 10}
	shape := []int{128, 64, 64} // 2 MB at 4 B
	mem := array.MustSchema(shape, []array.Dist{array.Block, array.Star, array.Star}, []int{2})
	specs := []ArraySpec{{Name: "seq", ElemSize: 4, Mem: mem, Disk: mem}}

	comms, shut, err := hubWorld(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, cfg.WorldSize())
	var wg sync.WaitGroup
	for r, comm := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer mpi.CloseComm(comm)
			if cfg.IsServer(r) {
				errs[r] = runServerNode(cfg, comm, storage.NewMemDisk())
				return
			}
			errs[r] = runClientNode(cfg, comm, func(cl *Client) error {
				bufs := makeBufs(cl, specs, true)
				for round := 0; round < 6; round++ {
					if err := cl.WriteArrays("", specs, bufs); err != nil {
						return err
					}
					got := makeBufs(cl, specs, false)
					if err := cl.ReadArrays("", specs, got); err != nil {
						return err
					}
					if err := checkBufs(cl, specs, got); err != nil {
						return err
					}
				}
				return nil
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if err := shut(); err != nil {
		t.Fatalf("hub: %v", err)
	}
}
