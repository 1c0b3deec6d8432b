package panda

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"panda/internal/clock"
	"panda/internal/core"
	"panda/internal/mpi"
)

// ErrSchemaMismatch reports an array opened under a schema whose
// fingerprint disagrees with the one the daemon's catalog recorded at
// creation. Match with errors.Is.
var ErrSchemaMismatch = core.ErrSchemaMismatch

// ErrUnknownArray reports an Open of an array the catalog has never
// heard of.
var ErrUnknownArray = core.ErrUnknownArray

// ErrDraining reports work refused because the daemon is shutting
// down gracefully.
var ErrDraining = core.ErrDraining

// ErrBusy reports scheduler admission backpressure (or a session
// refused because too few client slots are free).
var ErrBusy = core.ErrBusy

// ErrSeqWindow reports a collective refused because the session has
// used every operation sequence number the daemon gave it (see Session).
var ErrSeqWindow = core.ErrSeqWindow

// ErrDaemonUnavailable reports a Dial that exhausted its connect budget
// without ever reaching a daemon. Match with errors.Is; the wrapped
// chain carries the last underlying dial error.
var ErrDaemonUnavailable = errors.New("panda: daemon unavailable")

// SessionConfig describes a client session to Dial.
type SessionConfig struct {
	// Addr is the daemon's address.
	Addr string
	// Nodes is the number of compute nodes this session contributes
	// (0 = 1). Every array the session operates on must have this many
	// memory chunks.
	Nodes int
	// Tenant names the scheduler tenant the session's operations are
	// attributed to; "" is the default tenant.
	Tenant string
	// DialBudget bounds the initial connect, retried with exponential
	// backoff and jitter — a daemon still coming up (or briefly
	// restarting) is reached on a later attempt instead of failing the
	// first. 0 means 5s; a negative budget tries exactly once. After
	// the budget Dial fails with ErrDaemonUnavailable.
	DialBudget time.Duration
}

// Session is a live attachment to a Panda service daemon: a group of
// compute nodes with assigned ranks, running collectives through the
// daemon's scheduler. Sessions come and go freely; the daemon, its
// catalog, and other tenants' sessions are undisturbed. A session may
// run 8,192 collectives; the next one fails with ErrSeqWindow, at once
// and with nothing sent, and the application Dials a new session.
type Session struct {
	cfg     SessionConfig
	ccfg    core.Config
	id      int
	ranks   []int
	seqBase int

	mu      sync.Mutex
	ctl     *ctlConn
	members []*sessionMember
	closed  bool
}

// sessionMember is one compute node of the session, persistent across
// Run calls so bound buffers and operation sequencing carry over.
type sessionMember struct {
	comm mpi.Comm
	cl   *core.Client
	node *Node
}

// Dial connects to a daemon and attaches a session.
func Dial(cfg SessionConfig) (*Session, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	ctl, rep, err := dialControl(cfg.Addr, cfg.DialBudget, ctlRequest{Cmd: "attach", Nodes: cfg.Nodes, Tenant: cfg.Tenant})
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, ccfg: rep.coreConfig(), id: rep.Session, ranks: rep.Ranks, seqBase: rep.SeqBase, ctl: ctl}, nil
}

// ctlConn is one session-control connection to a daemon: the session
// hello, then newline-delimited JSON request/reply pairs.
type ctlConn struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// dialControl opens a control connection within budget (see dialRetry)
// and makes its first request, closing the connection again when the
// request fails.
func dialControl(addr string, budget time.Duration, req ctlRequest) (*ctlConn, ctlReply, error) {
	conn, err := dialRetry(addr, budget)
	if err != nil {
		return nil, ctlReply{}, err
	}
	c := &ctlConn{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
	err = mpi.SessionHello(conn)
	var rep ctlReply
	if err == nil {
		rep, err = c.call(req)
	}
	if err != nil {
		conn.Close()
		return nil, ctlReply{}, err
	}
	return c, rep, nil
}

// call runs one request/reply exchange; a refusal comes back as its
// typed sentinel.
func (c *ctlConn) call(req ctlRequest) (ctlReply, error) {
	if err := c.enc.Encode(req); err != nil {
		return ctlReply{}, fmt.Errorf("panda: session control: %w", err)
	}
	var rep ctlReply
	if err := c.dec.Decode(&rep); err != nil {
		return ctlReply{}, fmt.Errorf("panda: session control: %w", err)
	}
	if !rep.OK {
		return rep, core.SentinelError(rep.Code, rep.Error)
	}
	return rep, nil
}

// dialRetry connects to a daemon, retrying refused or timed-out
// attempts with exponential backoff (25ms doubling to 500ms, each wait
// jittered up to +50%) until the budget runs out, then reports
// ErrDaemonUnavailable wrapping the last attempt's error.
func dialRetry(addr string, budget time.Duration) (net.Conn, error) {
	if budget == 0 {
		budget = 5 * time.Second
	}
	deadline := time.Now().Add(budget)
	backoff := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		perTry := time.Until(deadline)
		if perTry < 250*time.Millisecond {
			perTry = 250 * time.Millisecond
		}
		conn, err := net.DialTimeout("tcp", addr, perTry)
		if err == nil {
			return conn, nil
		}
		wait := backoff + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if time.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("panda: dial %s: %d attempts: %v: %w", addr, attempt+1, err, ErrDaemonUnavailable)
		}
		time.Sleep(wait)
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// rpc runs one control request/reply exchange under s.mu.
func (s *Session) rpc(req ctlRequest) (ctlReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ctlReply{}, fmt.Errorf("panda: session closed")
	}
	return s.ctl.call(req)
}

// ID returns the daemon-assigned session identifier.
func (s *Session) ID() int { return s.id }

// Ranks returns the world ranks assigned to the session's nodes.
func (s *Session) Ranks() []int { return append([]int(nil), s.ranks...) }

// Create registers a (or validates, if the name already exists) in the
// daemon's catalog under a's schema. Creating an existing array with a
// different schema fails with ErrSchemaMismatch.
func (s *Session) Create(a *Array) error {
	_, err := s.rpc(ctlRequest{Cmd: "open", Name: a.name, Spec: core.EncodeSpec(a.spec), Create: true})
	return err
}

// Open resolves an existing array by name, returning a declaration
// carrying the exact schema recorded at creation — a session can read
// an array created by a long-gone session without re-declaring its
// decomposition. Fails with ErrUnknownArray for uncatalogued names.
func (s *Session) Open(name string) (*Array, error) {
	rep, err := s.rpc(ctlRequest{Cmd: "open", Name: name})
	if err != nil {
		return nil, err
	}
	spec, err := core.DecodeSpec(rep.Spec)
	if err != nil {
		return nil, fmt.Errorf("panda: open %s: %w", name, err)
	}
	return &Array{name: spec.Name, spec: spec}, nil
}

// ServiceInfo is a daemon status snapshot.
type ServiceInfo struct {
	// MaxInflight, QueueDepth, Weights and Pipeline mirror the daemon's
	// current (possibly reloaded) tuning.
	MaxInflight int
	QueueDepth  int
	Weights     map[string]int
	Pipeline    int
	// Sessions is the number of currently attached sessions; Arrays
	// the catalog size.
	Sessions int
	Arrays   int
	// Metrics is the daemon's metrics registry as generic JSON
	// (counters include the per-tenant tenant_ops_* / tenant_bytes_*
	// attribution).
	Metrics map[string]any
}

// Info fetches the daemon's current tuning and metrics.
func (s *Session) Info() (ServiceInfo, error) {
	rep, err := s.rpc(ctlRequest{Cmd: "info"})
	if err != nil {
		return ServiceInfo{}, err
	}
	info := ServiceInfo{
		MaxInflight: rep.MaxInflight,
		QueueDepth:  rep.QueueDepth,
		Weights:     rep.Weights,
		Pipeline:    rep.Pipeline,
		Sessions:    rep.Sessions,
		Arrays:      rep.Arrays,
	}
	if len(rep.Metrics) > 0 {
		_ = json.Unmarshal(rep.Metrics, &info.Metrics)
	}
	return info, nil
}

// dialMembers joins the session's nodes to the daemon's rank mesh.
// Called once, lazily, under s.mu.
func (s *Session) dialMembers() error {
	clk := clock.NewReal()
	for i, rank := range s.ranks {
		comm, err := mpi.DialComm(s.cfg.Addr, rank, s.ccfg.WorldSize())
		if err != nil {
			return fmt.Errorf("panda: session node %d: %w", i, err)
		}
		cl, err := core.NewSessionClient(s.ccfg, comm, clk, s.ranks, i, s.seqBase)
		if err != nil {
			mpi.CloseComm(comm) //nolint:errcheck
			return err
		}
		cl.SetTenant(s.cfg.Tenant)
		s.members = append(s.members, &sessionMember{
			comm: comm,
			cl:   cl,
			node: &Node{cl: cl, data: make(map[*Array][]byte), steps: make(map[*Group]int)},
		})
	}
	return nil
}

// Run executes app once on every node of the session, exactly like
// Cluster.Run but against the shared daemon: node i holds memory chunk
// i of every array. Nodes persist across Run calls — buffers stay
// bound, timestep counters advance — and the daemon keeps serving
// other sessions throughout. app must follow the SPMD rules.
func (s *Session) Run(app func(n *Node) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("panda: session closed")
	}
	if s.members == nil {
		if err := s.dialMembers(); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	members := s.members
	s.mu.Unlock()

	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *sessionMember) {
			defer wg.Done()
			errs[i] = app(m.node)
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close detaches the session: outstanding work is finished, the nodes
// leave the rank mesh, and the daemon frees the session's client
// slots. The daemon and other sessions keep running.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	members := s.members
	s.members = nil
	s.mu.Unlock()

	for _, m := range members {
		m.cl.Shutdown()
	}
	for _, m := range members {
		mpi.CloseComm(m.comm) //nolint:errcheck
	}
	// Best-effort explicit detach; closing the control connection
	// detaches implicitly anyway.
	_ = s.ctl.enc.Encode(ctlRequest{Cmd: "detach"})
	return s.ctl.conn.Close()
}
