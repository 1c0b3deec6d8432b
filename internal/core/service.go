package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"panda/internal/clock"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// The resident half of a Panda deployment.
//
// Historically a deployment's lifecycle was monolithic: a fixed client
// group and the server pool started together, ran one application, and
// the master client's shutdown handshake tore everything down. Service
// splits that into a resident service — the I/O servers and the
// operation scheduler, living as long as the daemon — and
// ephemeral sessions: client groups that attach, run collectives as a
// scheduler tenant, and detach without disturbing anyone else.
//
// The fixed-shape API still exists unchanged (RunWith now builds a
// private in-process Service for the duration of the call), and a
// pandad daemon builds a Service over a dynamic TCP hub, beside the
// array catalog it owns.

// SessionInfo describes one attached client session.
type SessionInfo struct {
	// ID is the session's identifier, monotonic per service, never
	// reused.
	ID int
	// Ranks are the world ranks assigned to the session's members, in
	// memory-chunk order: member i holds memory chunk i of every array
	// the session operates on.
	Ranks []int
	// SeqBase is the first operation sequence number the session's
	// clients use (ID << sessionSeqBits).
	SeqBase int
	// Tenant is the scheduler tenant the session's operations are
	// attributed to.
	Tenant string
	// Attached is when the session attached.
	Attached time.Time
}

// DispatchedOp is one operation the master server has dispatched and
// not yet retired. The master's table of them (Service.Dispatched) is
// the deployment's one in-flight record: a drain's fence, the daemon's
// SLO watchdog and its in-flight gauges all read it.
type DispatchedOp struct {
	Seq    int
	Tenant string
	// Op is "write" or "read".
	Op string
	// MemberEpoch is the membership epoch the operation was planned
	// under (0 without elastic membership).
	MemberEpoch uint32
	// At is the dispatch time on the deployment clock (Clock).
	At time.Duration
}

// dispatchTable holds the master server's DispatchedOps: its router
// enters an operation at dispatch (publish) and removes it at
// retirement, readers copy it (Dispatched), all under mu. It is as long
// as the dispatch window (SchedConfig.MaxInflight).
type dispatchTable struct {
	mu       sync.Mutex
	ops      []DispatchedOp
	inflight *obs.Gauge // sched_inflight_ops: len(ops), set under mu
}

// Service is a resident Panda deployment: the server pool, accepting
// client sessions until drained.
type Service struct {
	cfg   Config
	disks []storage.Disk
	send  func(to, tag int, data []byte)
	clk   clock.Clock

	mu       sync.Mutex
	draining bool
	nextSID  int
	slots    []int // client rank -> owning session ID, 0 = free
	sessions map[int]SessionInfo

	wg        sync.WaitGroup
	errs      []error
	watchStop chan struct{} // closes the lease watchdog on Drain
}

// NewService validates cfg and builds a service over the given server
// disks. With elastic membership (cfg.Members), disks may carry nil
// entries for vacant pool slots and slots served by remote joiners from
// their own processes; disks[0] (the master server's) must be real.
func NewService(cfg Config, disks []storage.Disk) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(disks) != cfg.NumServers {
		return nil, fmt.Errorf("core: %d disks for %d servers", len(disks), cfg.NumServers)
	}
	for i, d := range disks {
		if d != nil {
			continue
		}
		if cfg.Members == nil {
			return nil, fmt.Errorf("core: nil disk for server %d in a static deployment", i)
		}
		if i == 0 {
			return nil, fmt.Errorf("core: the master server (slot 0) needs a real disk")
		}
	}
	cfg.dispatched = &dispatchTable{inflight: cfg.Metrics.Gauge("sched_inflight_ops")}
	return &Service{
		cfg:      cfg,
		disks:    disks,
		nextSID:  1, // 0 marks a free slot, and seq base 0 belongs to the fixed-shape path
		slots:    make([]int, cfg.NumClients),
		sessions: make(map[int]SessionInfo),
	}, nil
}

// Config returns the service's current deployment configuration
// (reloads mutate the scheduler and pipeline fields).
func (s *Service) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Start spawns the server pool: comms[i] is server i's endpoint (world
// rank cfg.ServerRank(i)). send, when non-nil, is how the service
// injects control frames at server ranks from outside the rank mesh —
// a hub's Inject for TCP deployments, a spare bound endpoint for
// in-process ones. Reconfigure and Drain require it. clk is the
// servers' clock; pass the deployment's shared clock when clients run
// in the same process — OpTimeout deadlines are relative to a clock's
// origin, so every rank of one deployment must measure against the
// same one. nil means a fresh real-time clock (fine for a daemon,
// whose clients live in other processes and carry their own clocks).
func (s *Service) Start(comms []mpi.Comm, send func(to, tag int, data []byte), clk clock.Clock) error {
	if len(comms) != s.cfg.NumServers {
		return fmt.Errorf("core: %d endpoints for %d servers", len(comms), s.cfg.NumServers)
	}
	s.send = send
	if clk == nil {
		clk = clock.NewReal()
	}
	s.clk = clk
	s.errs = make([]error, s.cfg.NumServers)
	for i := range comms {
		if comms[i] == nil {
			// A vacant elastic-pool slot: no local server. A joiner may
			// claim it later, serving from its own process over the hub.
			continue
		}
		s.wg.Add(1)
		go func(i int, cfg Config) { // cfg copied here: Reconfigure may mutate s.cfg before this runs
			defer s.wg.Done()
			s.errs[i] = NewServer(cfg, comms[i], s.disks[i], clk).Serve()
		}(i, s.cfg)
	}
	if s.cfg.Members != nil {
		s.watchStop = make(chan struct{})
		// The watchdog reads the membership, not s.cfg, which Reconfigure
		// mutates under s.mu.
		go s.leaseWatchdog(clk, s.cfg.Members)
	}
	return nil
}

// leaseWatchdog periodically expires lapsed member leases under the
// deployment clock. Local members are pinned (no lease), so a fixed
// pool never sees it act; a remote joiner is normally declared gone
// the moment its control connection ends, and the watchdog catches
// the one that keeps its connections open and stops heartbeating. A
// loss feeds the failover replanner exactly like a transport-level
// death report.
func (s *Service) leaseWatchdog(clk clock.Clock, members *Membership) {
	for {
		clk.Sleep(members.HeartbeatEvery())
		select {
		case <-s.watchStop:
			return
		default:
		}
		members.ExpireLeases(clk.Now())
	}
}

// Clock returns the deployment clock Start installed. Membership times
// (lease grants, heartbeats, expiry sweeps) must be measured against
// it, since the lease watchdog sweeps under the same clock.
func (s *Service) Clock() clock.Clock { return s.clk }

// BeginServerDrain fences server slot idx out of newly dispatched
// writes: operations stamped from here on exclude it, so migration
// (reads still reach the slot) converges. It returns the fence epoch;
// operations dispatched under earlier epochs are the pre-drain set
// WaitServerIdle waits out.
func (s *Service) BeginServerDrain(idx int) (uint32, error) {
	if s.cfg.Members == nil {
		return 0, fmt.Errorf("core: drain server %d: deployment has no elastic membership", idx)
	}
	return s.cfg.Members.StartDrain(idx)
}

// WaitServerIdle blocks until every operation dispatched under a
// membership epoch earlier than fence has retired — the "in-flight
// operations complete on their pre-drain plan snapshot" guarantee.
func (s *Service) WaitServerIdle(fence uint32) {
	for slices.ContainsFunc(s.Dispatched(), func(op DispatchedOp) bool { return op.MemberEpoch < fence }) {
		s.clk.Sleep(2 * time.Millisecond)
	}
}

// Dispatched lists the operations the master server has dispatched and
// not yet retired.
func (s *Service) Dispatched() []DispatchedOp {
	t := s.cfg.dispatched
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.ops)
}

// FinishServerDrain retires a drained slot after migration: the slot
// returns to the vacant pool first, and only then is the victim server
// told to exit — so its exit, and the end of its control connection,
// find a slot that is no longer its own and never read as a loss. The
// shutdown frame is best-effort: a victim that already died simply
// leaves the frame undeliverable.
func (s *Service) FinishServerDrain(idx int) error {
	if s.cfg.Members == nil {
		return fmt.Errorf("core: finish drain of server %d: deployment has no elastic membership", idx)
	}
	if err := s.cfg.Members.FinishDrain(idx); err != nil {
		return err
	}
	if s.send != nil {
		s.send(s.cfg.ServerRank(idx), tagControl, encodeShutdown())
	}
	return nil
}

// Attach admits a client session of the given member count, assigning
// it world ranks, a sequence-number window, and a scheduler tenant. It
// fails with ErrDraining once a drain began, ErrBusy when too few
// client slots are free, and ErrSeqWindow once every session ID has
// been issued.
func (s *Service) Attach(nodes int, tenant string) (SessionInfo, error) {
	if nodes <= 0 {
		return SessionInfo{}, fmt.Errorf("core: session with %d nodes", nodes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return SessionInfo{}, fmt.Errorf("core: attach refused: %w", ErrDraining)
	}
	if s.nextSID > maxSessionID {
		// A session ID is the upper bits of the sequence space: spent
		// IDs are spent windows.
		return SessionInfo{}, fmt.Errorf("core: session ID space exhausted (%d sessions served): %w", maxSessionID, ErrSeqWindow)
	}
	var ranks []int
	for r := 0; r < s.cfg.NumClients && len(ranks) < nodes; r++ {
		if s.slots[r] == 0 {
			ranks = append(ranks, r)
		}
	}
	if len(ranks) < nodes {
		return SessionInfo{}, fmt.Errorf("core: %d of %d client slots free, session needs %d: %w",
			len(ranks), s.cfg.NumClients, nodes, ErrBusy)
	}
	sid := s.nextSID
	s.nextSID++
	for _, r := range ranks {
		s.slots[r] = sid
	}
	info := SessionInfo{ID: sid, Ranks: ranks, SeqBase: sid << sessionSeqBits, Tenant: tenant, Attached: time.Now()}
	s.sessions[sid] = info
	return info, nil
}

// Detach releases a session's client slots. Idempotent.
func (s *Service) Detach(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.sessions[id]
	if !ok {
		return
	}
	delete(s.sessions, id)
	for _, r := range info.Ranks {
		if s.slots[r] == id {
			s.slots[r] = 0
		}
	}
}

// Draining reports whether a graceful drain has begun (new sessions
// and operations are being refused). The daemon's /readyz endpoint
// turns this into a load-balancer answer.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Sessions lists the currently attached sessions.
func (s *Service) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, info := range s.sessions {
		out = append(out, info)
	}
	return out
}

// Reconfigure installs new scheduler and pipeline tuning across the
// live service: the service's own view mutates immediately, and every
// server receives a reconfig frame its router applies between
// operations — in-flight operations keep the knobs they started with.
// Reconfig.Sched.MaxInflight == 0 keeps the current concurrency bound.
// Tuning that NewService would refuse (Config.Validate) is refused here
// too, and the current tuning stays.
func (s *Service) Reconfigure(rc Reconfig) error {
	s.mu.Lock()
	next := s.cfg
	next.reconfigure(rc)
	err := next.Validate()
	if err == nil {
		s.cfg = next
	}
	send := s.send
	s.mu.Unlock()
	if err != nil || send == nil {
		return err
	}
	frame := encodeReconfig(rc)
	for i := 0; i < s.cfg.NumServers; i++ {
		// Every router frees its frame to the buffer pool, so each
		// server must own a private copy.
		send(s.cfg.ServerRank(i), tagControl, append([]byte(nil), frame...))
	}
	return nil
}

// Drain shuts the service down gracefully: new sessions and operations
// are refused, in-flight and queued operations run to completion and
// commit, then the servers exit. Drain blocks until the pool is down
// and returns the first server error.
//
// The shutdown frame goes to the master only, through the send Start
// was given; the master forwards it to the other servers once its last
// operation retires (see Serve), so no server is told to exit while
// work it must serve is still arriving. That cascade is a service-mode
// one (Config.Service), so a deployment started with a send must be in
// service mode. Without a send (RunWith) Drain sends nothing: the
// fixed-shape handshake stops the servers and Drain only waits.
func (s *Service) Drain() error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	send := s.send
	s.mu.Unlock()
	if !already && s.watchStop != nil {
		close(s.watchStop)
	}
	if !already && send != nil {
		send(s.cfg.MasterServer(), tagControl, encodeShutdown())
	}
	return s.Wait()
}

// Wait blocks until every server goroutine exits and returns the first
// error any reported.
func (s *Service) Wait() error {
	s.wg.Wait()
	for _, err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ServerErrors returns each server's outcome, indexed by server. Valid
// after Wait.
func (s *Service) ServerErrors() []error { return s.errs }
