package core

import (
	"fmt"
	"sync"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/storage"
	"panda/internal/vtime"
)

// tagAppDone carries the end-of-application handshake: every non-master
// client tells the master client its application code has returned; the
// master then shuts the servers down.
const tagAppDone = 13

// App is the application code run on every compute node. It is invoked
// once per client with that node's Client endpoint and must make the
// same collective calls in the same order on every rank (SPMD).
type App func(cl *Client) error

// clientMain wraps app with the shutdown handshake: every outstanding
// submission is finished first (an op still on the wire must not race
// the server drain), the non-masters tell the master their application
// has returned, and the master then shuts the servers down. With
// OpTimeout set the handshake waits are bounded: a dead client cannot
// keep the master from shutting the servers down (best-effort — the
// master proceeds after one OpTimeout per missing peer).
func clientMain(cfg Config, comm mpi.Comm, clk clock.Clock, app App) error {
	cl := NewClient(cfg, comm, clk)
	err := app(cl)
	cl.drainHandles()
	if cl.IsMaster() {
		cl.collectAppDone()
		for i := 0; i < cfg.NumServers; i++ {
			comm.Send(cfg.ServerRank(i), tagControl, encodeShutdown())
		}
	} else {
		comm.Send(cfg.MasterClient(), tagAppDone, nil)
	}
	cl.stopRouter()
	return err
}

// RunReal executes a Panda deployment in real time inside this process:
// every node is a goroutine, messages move through memory, and disks
// are whatever the caller provides (one per server; OSDisk for real
// files). It returns the first error any node reported.
//
// RunReal is the functional-correctness runtime behind the examples and
// integration tests; the paper's performance figures use RunSim.
func RunReal(cfg Config, disks []storage.Disk, app App) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	world := mpi.NewWorld(cfg.WorldSize())
	comms := make([]mpi.Comm, cfg.WorldSize())
	for r := range comms {
		comms[r] = world.Comm(r)
	}
	_, err := RunWith(cfg, comms, disks, app)
	return err
}

// RunWith is RunReal over caller-supplied endpoints, one per rank —
// the hook for interposing transport wrappers such as mpi.WrapFault.
// It returns every node's outcome (indexed by rank) plus the first
// non-nil one.
func RunWith(cfg Config, comms []mpi.Comm, disks []storage.Disk, app App) ([]error, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(comms) != cfg.WorldSize() {
		return nil, fmt.Errorf("core: %d endpoints for a world of %d", len(comms), cfg.WorldSize())
	}
	// The fixed-shape runtime is a private resident service living for
	// exactly one application: the server pool runs under a Service, the
	// full client group is its only "session", and the legacy shutdown
	// handshake (master client broadcasting after the app returns) is
	// the drain.
	svc, err := NewService(cfg, disks)
	if err != nil {
		return nil, err
	}
	// One clock for the whole deployment: clients and servers compute
	// OpTimeout deadlines relative to this clock's origin, so they must
	// share it.
	clk := clock.NewReal()

	errs := make([]error, cfg.WorldSize())
	var wg sync.WaitGroup
	for r := 0; r < cfg.NumClients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = clientMain(cfg, comms[r], clk, app)
		}(r)
	}
	if err := svc.Start(comms[cfg.NumClients:], nil, clk); err != nil {
		return nil, err
	}
	wg.Wait()
	svc.Wait()
	copy(errs[cfg.NumClients:], svc.ServerErrors())
	for _, err := range errs {
		if err != nil {
			return errs, err
		}
	}
	return errs, nil
}

// SimResult reports what a simulated deployment did.
type SimResult struct {
	// Elapsed is the total virtual time from start to the last event.
	Elapsed time.Duration
	// ClientElapsed[r] is client r's time inside its last collective
	// call; the paper's elapsed-time metric is the maximum entry.
	ClientElapsed []time.Duration
	// ClientStats and ServerStats are the per-node traffic counters.
	ClientStats []Stats
	ServerStats []Stats
	// DiskStats[i] holds server i's disk counters when its Disk was a
	// *storage.SimDisk, else a zero value.
	DiskStats []storage.DiskStats
}

// MaxClientElapsed returns the paper's elapsed-time metric.
func (r SimResult) MaxClientElapsed() time.Duration {
	var m time.Duration
	for _, e := range r.ClientElapsed {
		if e > m {
			m = e
		}
	}
	return m
}

// DiskFactory builds server i's file system; clk is that server's
// virtual clock (SimDisk charges I/O time through it).
type DiskFactory func(i int, clk clock.Clock) storage.Disk

// SimHandle tracks one deployment spawned into a shared simulation.
// Call Result only after the simulation's Run has returned.
type SimHandle struct {
	res  *SimResult
	errs []error
	sim  *vtime.Sim
}

// Result returns the deployment's outcome; valid after sim.Run.
func (h *SimHandle) Result() (SimResult, error) {
	h.res.Elapsed = h.sim.Now()
	for _, err := range h.errs {
		if err != nil {
			return *h.res, err
		}
	}
	return *h.res, nil
}

// SpawnSim adds a full deployment — clients, servers, an application —
// to an existing simulation, with node names prefixed for diagnostics.
// It lets several independent Panda applications share one virtual
// machine room, e.g. to study I/O node sharing (disks built by mkDisk
// may be shared between deployments via storage.SimDisk.ShareMediaWith).
func SpawnSim(sim *vtime.Sim, prefix string, cfg Config, link mpi.LinkConfig, mkDisk DiskFactory, app App) (*SimHandle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	world := mpi.NewSimWorld(sim, cfg.WorldSize(), link)
	if cfg.Topology != nil {
		world.SetTopology(cfg.Topology) // cfg.Validate checked it above
	}
	res := &SimResult{
		ClientElapsed: make([]time.Duration, cfg.NumClients),
		ClientStats:   make([]Stats, cfg.NumClients),
		ServerStats:   make([]Stats, cfg.NumServers),
		DiskStats:     make([]storage.DiskStats, cfg.NumServers),
	}
	h := &SimHandle{res: res, errs: make([]error, cfg.WorldSize()), sim: sim}

	for r := 0; r < cfg.NumClients; r++ {
		r := r
		sim.Spawn(fmt.Sprintf("%sclient%d", prefix, r), func(p *vtime.Proc) {
			clk := clock.NewVirtual(p)
			var snapshot Client
			h.errs[r] = clientMain(cfg, world.Bind(r, p), clk, func(cl *Client) error {
				err := app(cl)
				snapshot = *cl
				return err
			})
			res.ClientElapsed[r] = snapshot.LastElapsed()
			res.ClientStats[r] = snapshot.Stats()
		})
	}
	for i := 0; i < cfg.NumServers; i++ {
		i := i
		sim.Spawn(fmt.Sprintf("%sserver%d", prefix, i), func(p *vtime.Proc) {
			clk := clock.NewVirtual(p)
			rank := cfg.ServerRank(i)
			disk := mkDisk(i, clk)
			srv := NewServer(cfg, world.Bind(rank, p), disk, clk)
			h.errs[rank] = srv.Serve()
			res.ServerStats[i] = srv.Stats()
			if sd, ok := disk.(*storage.SimDisk); ok {
				res.DiskStats[i] = sd.Stats()
			}
		})
	}
	return h, nil
}

// RunSim executes a deployment under virtual time: nodes are vtime
// processes, the interconnect follows link, and server i's disk comes
// from mkDisk. Data still moves for real through the same client and
// server code as RunReal; only time is simulated. The run is
// deterministic.
func RunSim(cfg Config, link mpi.LinkConfig, mkDisk DiskFactory, app App) (SimResult, error) {
	sim := vtime.New()
	h, err := SpawnSim(sim, "", cfg, link, mkDisk, app)
	if err != nil {
		return SimResult{}, err
	}
	if err := sim.Run(); err != nil {
		return *h.res, err
	}
	return h.Result()
}
