package panda

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"panda/internal/bufpool"
	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/obs"
	"panda/internal/storage"
)

// The Panda service daemon: a resident deployment serving many client
// sessions over TCP.
//
// A Daemon owns the I/O-node pool, the operation scheduler, and a
// persistent array catalog. Client processes Dial it at any time, open
// or create arrays by name, run collective operations as a scheduler
// tenant, and disconnect — without disturbing other tenants and without
// restarting anything. The catalog (and the epoch-committed data behind
// it) survives daemon restarts: a rebooted daemon scrubs its disks,
// loads the catalog, and serves the same arrays again.
//
// cmd/pandad wraps a Daemon in a process with SIGHUP-triggered tuning
// reload and SIGTERM-triggered graceful drain.

// Tuning is the live-reloadable part of a daemon's configuration: the
// scheduler and pipeline knobs. A reload applies to operations
// dispatched after it; in-flight operations keep the values they
// started with.
type Tuning struct {
	// MaxInflight is the number of operations dispatched concurrently
	// (0 on reload keeps the current bound; 0 at startup means 4).
	MaxInflight int `json:"max_inflight"`
	// QueueDepth bounds the admission queue (0 = 16).
	QueueDepth int `json:"queue_depth"`
	// Quantum is the DRR byte credit per round (0 = 1 MiB).
	Quantum int64 `json:"quantum"`
	// Weights maps tenant name to scheduling weight.
	Weights map[string]int `json:"weights"`
	// Pipeline is the write pipeline depth: sub-chunks pulled at once,
	// and — floored at 2, executors always write behind — sub-chunks
	// outstanding at the node's storage stage per operation.
	Pipeline int `json:"pipeline"`

	// SLOms maps tenant name to a per-operation completion-latency
	// objective in milliseconds. An operation that completes past its
	// tenant's objective counts as an SLO violation; one still in
	// flight past four times it is flagged stuck. Violations
	// increment slo_violations, log a structured event, and trigger a
	// flight-recorder dump.
	SLOms map[string]int64 `json:"slo_ms"`
	// SLODefaultMs is the objective for tenants not listed in SLOms
	// (0 = no objective; those tenants are not watched).
	SLODefaultMs int64 `json:"slo_default_ms"`
}

func (t Tuning) reconfig() core.Reconfig {
	return core.Reconfig{
		Sched: core.SchedConfig{
			MaxInflight: t.MaxInflight,
			QueueDepth:  t.QueueDepth,
			Quantum:     t.Quantum,
			Weights:     t.Weights,
		},
		Pipeline: t.Pipeline,
	}
}

// DaemonConfig configures a service daemon.
type DaemonConfig struct {
	// Addr is the TCP listen address ("" = "127.0.0.1:0"; use
	// Daemon.Addr to learn the bound address).
	Addr string
	// Dir stores each I/O node's files (and the catalog) under
	// Dir/ion<i>/; "" keeps everything in memory — gone with the
	// process, useful only for tests.
	Dir string
	// ClientSlots is the number of client ranks available to attached
	// sessions in aggregate (0 = 8).
	ClientSlots int
	// IONodes is the number of I/O nodes the daemon itself runs at
	// startup (0 = 2).
	IONodes int
	// MaxIONodes is the server pool's capacity: the most I/O nodes the
	// deployment can ever hold, counting runtime joiners (pandad
	// -join). Capacity fixes the communicator shape, so it cannot grow
	// without a restart; slots above IONodes start vacant. 0 (or less
	// than IONodes) means capacity == IONodes.
	MaxIONodes int
	// LeaseTTL is how long a joined I/O node may miss heartbeats before
	// it is declared lost and its chunks are replanned (0 = 10s). It is
	// the backstop for a node that goes silent with its connections
	// open: one whose control connection ends is declared lost at once.
	LeaseTTL time.Duration
	// HeartbeatEvery is the joiners' heartbeat (and the lease watchdog's
	// sweep) cadence (0 = LeaseTTL/4). Must be shorter than LeaseTTL.
	HeartbeatEvery time.Duration
	// SubchunkBytes bounds the transfer/IO unit (0 = 1 MB).
	SubchunkBytes int64
	// OpTimeout bounds every collective operation; 0 disables.
	OpTimeout time.Duration
	// PullRetries is the per-sub-chunk re-request budget inside
	// OpTimeout.
	PullRetries int
	// Tuning is the initial scheduler and pipeline tuning.
	Tuning Tuning
	// HTTPAddr, when non-empty, serves the telemetry plane on this
	// address: /metrics, /healthz, /readyz, /sessions, /slo, /dump,
	// /status and /debug/pprof. Use Daemon.HTTPAddr for the bound
	// address (handy with ":0").
	HTTPAddr string
	// Logf, when non-nil, receives one line per notable daemon event.
	Logf func(format string, args ...any)
}

// Daemon is a running Panda service.
type Daemon struct {
	ccfg    core.Config
	svc     *core.Service
	cat     *storage.Catalog // name -> schema; the daemon's own registry
	hub     *mpi.Hub
	disks   []storage.Disk
	members *core.Membership
	reg     *obs.Registry
	rec     *obs.Recorder
	tel     *telemetry
	events  *obs.EventLog
	httpSrv *http.Server
	httpLn  net.Listener
	info    DaemonInfo
	logf    func(string, ...any)
	hubDone chan error

	rebalMu   sync.Mutex // serializes membership rebalances
	drainOnce sync.Once
	drainErr  error
}

// DaemonInfo is the daemon's resolved configuration, emitted as the
// startup event and available to wrappers (cmd/pandad logs it).
type DaemonInfo struct {
	Addr        string `json:"addr"`
	HTTPAddr    string `json:"http_addr,omitempty"`
	Dir         string `json:"dir,omitempty"`
	ClientSlots int    `json:"slots"`
	IONodes     int    `json:"ions"`
	MaxIONodes  int    `json:"max_ions,omitempty"`
	OpTimeoutMs int64  `json:"op_timeout_ms,omitempty"`
	Tuning      Tuning `json:"tuning"`
}

// crashPoint kills the process when the PANDAD_CRASH_POINT environment
// variable names this point — the recovery tests' deterministic
// SIGKILL. A library no-op otherwise.
func crashPoint(name string) {
	if os.Getenv("PANDAD_CRASH_POINT") == name {
		os.Exit(3)
	}
}

// StartDaemon builds the service — disks, scrub, catalog, server
// pool, TCP hub — and begins accepting sessions. The returned Daemon
// is serving when StartDaemon returns.
func StartDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.ClientSlots == 0 {
		cfg.ClientSlots = 8
	}
	if cfg.IONodes == 0 {
		cfg.IONodes = 2
	}
	if cfg.MaxIONodes < cfg.IONodes {
		cfg.MaxIONodes = cfg.IONodes
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Tuning.MaxInflight == 0 {
		cfg.Tuning.MaxInflight = 4
	}
	if cfg.LeaseTTL < 0 || cfg.HeartbeatEvery < 0 {
		return nil, fmt.Errorf("panda: daemon: negative LeaseTTL or HeartbeatEvery")
	}
	// The server pool is sized to its capacity; the daemon's own I/O
	// nodes occupy the first IONodes slots and the rest stay vacant for
	// runtime joiners. Membership tracks which slots are live, and is
	// the one home of the lease timing: heartbeats renew by it, the
	// watchdog sweeps at it, joiners are told it.
	members := core.NewMembership(cfg.MaxIONodes, cfg.IONodes, cfg.LeaseTTL, cfg.HeartbeatEvery)
	if members.HeartbeatEvery() >= members.LeaseTTL() {
		return nil, fmt.Errorf("panda: daemon: HeartbeatEvery %v must undercut LeaseTTL %v", members.HeartbeatEvery(), members.LeaseTTL())
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	reg := obs.NewRegistry()
	bufpool.RegisterMetrics(reg)
	// The flight recorder is always on: recording a span is one mutexed
	// slot store into a pre-allocated ring, so the daemon can afford to
	// never fly blind. Dumps snapshot the ring on demand.
	rec := obs.NewRecorder(0)
	var events *obs.EventLog
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o777); err != nil {
			return nil, fmt.Errorf("panda: daemon: %w", err)
		}
		ev, err := obs.OpenEventLog(filepath.Join(cfg.Dir, "events.jsonl"))
		if err != nil {
			return nil, fmt.Errorf("panda: daemon: %w", err)
		}
		events = ev
	}
	// tel reads the service's tables, so it is built once the service
	// is; no operation can log before Start.
	var tel *telemetry
	tuned := cfg.Tuning.reconfig()
	ccfg := core.Config{
		NumClients:    cfg.ClientSlots,
		NumServers:    cfg.MaxIONodes,
		SubchunkBytes: cfg.SubchunkBytes,
		Pipeline:      tuned.Pipeline,
		OpTimeout:     cfg.OpTimeout,
		PullRetries:   cfg.PullRetries,
		Metrics:       reg,
		Trace:         rec,
		Service:       true,
		Members:       members,
		Sched:         tuned.Sched,
		OpLog: func(sum core.OpSummary) {
			tel.opDone(sum)
			if sum.Err == nil {
				logf("op seq=%d server=%d %s %d bytes tenant=%q in %v",
					sum.Seq, sum.Server, sum.Op, sum.Bytes, sum.Tenant, sum.Elapsed)
				if sum.Op == "write" {
					crashPoint("post-write")
				}
			} else {
				logf("op seq=%d server=%d %s failed: %v", sum.Seq, sum.Server, sum.Op, sum.Err)
			}
		},
	}

	// One disk per launch-time I/O node; vacant pool slots stay nil —
	// runtime joiners serve from their own processes with their own
	// disks, which the daemon never touches.
	disks := make([]storage.Disk, cfg.MaxIONodes)
	for i := 0; i < cfg.IONodes; i++ {
		if cfg.Dir == "" {
			disks[i] = storage.NewMemDisk()
			continue
		}
		d, err := storage.NewOSDisk(storage.NodeDir(cfg.Dir, i))
		if err != nil {
			return nil, err
		}
		disks[i] = d
	}
	cat, err := storage.LoadCatalog(disks[0])
	if err != nil {
		return nil, fmt.Errorf("panda: daemon: %w", err)
	}
	svc, err := core.NewService(ccfg, disks)
	if err != nil {
		return nil, err
	}
	tel = newTelemetry(svc, reg, rec, events, cfg.Dir, logf)
	tel.setSLO(cfg.Tuning.sloPolicy())
	// Recovery is the scrub pandafsck -repair runs: prepared-but-
	// undecided epochs roll back, decided ones forward. What is
	// committed is then read from the decision records when needed.
	rep, err := storage.Scrub(disks, true)
	if err != nil {
		return nil, fmt.Errorf("panda: daemon recovery: %w", err)
	}
	logf("recovered: %d arrays catalogued, scrub manifests=%d rolled_forward=%d rolled_back=%d removed=%d issues=%d",
		cat.Len(), rep.Manifests, rep.RolledForward, rep.RolledBack, rep.Removed, len(rep.Issues))

	hub, err := mpi.ListenHub(cfg.Addr, ccfg.WorldSize())
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		ccfg:    ccfg,
		svc:     svc,
		cat:     cat,
		hub:     hub,
		disks:   disks,
		members: members,
		reg:     reg,
		rec:     rec,
		tel:     tel,
		events:  events,
		logf:    logf,
		hubDone: make(chan error, 1),
	}
	members.SetNotify(d.onMemberEvent)
	reg.Func("servers_active", func() int64 { return int64(members.ActiveCount()) })
	reg.Func("member_epoch", func() int64 { return int64(members.Epoch()) })
	hub.HandleSessions(d.handleSession)
	go func() { d.hubDone <- hub.Serve() }()

	// The daemon's own I/O nodes attach to the hub in-process: a frame a
	// session member sends them is read off its socket straight into
	// their mailbox, and what they send it is written straight onto that
	// socket — one socket crossing per byte, not the two a dialed rank
	// pays. Remote members still reach them with no special casing.
	// Vacant pool slots get no endpoint.
	comms := make([]mpi.Comm, cfg.MaxIONodes)
	for i := 0; i < cfg.IONodes; i++ {
		comms[i], err = hub.Local(ccfg.ServerRank(i))
		if err != nil {
			hub.Close()
			return nil, err
		}
	}
	if err := svc.Start(comms, hub.Inject, nil); err != nil {
		hub.Close()
		return nil, err
	}

	if cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			hub.Close()
			return nil, fmt.Errorf("panda: daemon http: %w", err)
		}
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: d.telemetryHandler()}
		go func() {
			if err := d.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				logf("http plane: %v", err)
			}
		}()
	}
	tel.startWatchdog()

	d.info = DaemonInfo{
		Addr:        hub.Addr(),
		HTTPAddr:    d.HTTPAddr(),
		Dir:         cfg.Dir,
		ClientSlots: cfg.ClientSlots,
		IONodes:     cfg.IONodes,
		MaxIONodes:  cfg.MaxIONodes,
		OpTimeoutMs: cfg.OpTimeout.Milliseconds(),
		Tuning:      cfg.Tuning,
	}
	events.Emit("startup", structFields(d.info))
	logf("serving on %s: %d client slots, %d I/O nodes", hub.Addr(), cfg.ClientSlots, cfg.IONodes)
	return d, nil
}

// structFields flattens a struct's JSON representation into the event
// field map.
func structFields(v any) map[string]any {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	var m map[string]any
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return m
}

// Addr returns the daemon's bound listen address.
func (d *Daemon) Addr() string { return d.hub.Addr() }

// HTTPAddr returns the telemetry plane's bound address, or "" when the
// daemon was started without one.
func (d *Daemon) HTTPAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// StartupInfo returns the daemon's resolved configuration — the same
// fields the startup event carries.
func (d *Daemon) StartupInfo() DaemonInfo { return d.info }

// Service exposes the underlying core service (tests and cmd/pandad).
func (d *Daemon) Service() *core.Service { return d.svc }

// Reload applies new scheduler and pipeline tuning to the live
// service with zero interruption: in-flight operations finish under
// the old tuning, subsequent dispatches use the new one. Tuning that
// StartDaemon would refuse is refused, and the old tuning stays.
func (d *Daemon) Reload(t Tuning) error {
	if err := d.svc.Reconfigure(t.reconfig()); err != nil {
		return fmt.Errorf("panda: reload: %w", err)
	}
	d.tel.setSLO(t.sloPolicy())
	cfg := d.svc.Config()
	d.events.Emit("reconfigure", structFields(t))
	d.logf("reloaded tuning: max_inflight=%d queue_depth=%d quantum=%d weights=%v pipeline=%d slo_ms=%v slo_default_ms=%d",
		cfg.Sched.MaxInflight, cfg.Sched.QueueDepth, cfg.Sched.Quantum, cfg.Sched.Weights, cfg.Pipeline,
		t.SLOms, t.SLODefaultMs)
	return nil
}

// Drain shuts the daemon down gracefully: new sessions and operations
// are refused, in-flight and queued work runs to completion and
// commits, the I/O nodes flush and exit, and the listener closes. It
// returns the first server error (nil on a clean drain).
func (d *Daemon) Drain() error {
	d.drainOnce.Do(func() {
		d.logf("draining")
		d.events.Emit("drain", map[string]any{"sessions": len(d.svc.Sessions())})
		err := d.svc.Drain()
		for _, disk := range d.disks {
			if disk != nil { // vacant pool slots carry no disk
				disk.FlushCache()
			}
		}
		// Closing the hub severs every connection it accepted (a crashed
		// client's control link, a departed joiner's leftover, a probe that
		// never said hello), so no wedged peer holds up the exit.
		d.hub.Close()
		<-d.hubDone
		d.tel.stopWatchdog()
		if d.httpSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if d.httpSrv.Shutdown(ctx) != nil {
				d.httpSrv.Close() //nolint:errcheck
			}
			cancel()
		}
		d.events.Emit("drained", map[string]any{"error": errString(err)})
		d.events.Close() //nolint:errcheck
		d.logf("drained: %v", err)
		d.drainErr = err
	})
	return d.drainErr
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// The session control protocol: newline-delimited JSON request/reply
// pairs on a dedicated connection opened with the session hello. The
// connection is the session: closing it (or a client crash) detaches
// the session and frees its client ranks. A joining I/O node's
// connection is its membership in the same way: the slot its
// server-join reserved is the only slot it can make ready or renew,
// and its end is the node's loss.

type ctlRequest struct {
	Cmd    string `json:"cmd"`
	Nodes  int    `json:"nodes,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Name   string `json:"name,omitempty"`
	Spec   []byte `json:"spec,omitempty"`
	Create bool   `json:"create,omitempty"`
	// Addr is the joiner's self-description on a server-join request
	// (diagnostic only; the mesh reaches the joiner over its own dialed
	// connections).
	Addr string `json:"addr,omitempty"`
}

type ctlReply struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`

	// attach
	Session     int   `json:"session,omitempty"`
	Ranks       []int `json:"ranks,omitempty"`
	SeqBase     int   `json:"seq_base,omitempty"`
	Clients     int   `json:"clients,omitempty"`
	Servers     int   `json:"servers,omitempty"`
	Subchunk    int64 `json:"subchunk,omitempty"`
	OpTimeoutNs int64 `json:"op_timeout_ns,omitempty"`
	PullRetries int   `json:"pull_retries,omitempty"`
	MaxInflight int   `json:"max_inflight,omitempty"`

	// open
	Spec []byte `json:"spec,omitempty"`

	// server-join
	Slot        int   `json:"slot,omitempty"`
	HeartbeatNs int64 `json:"heartbeat_ns,omitempty"`
	LeaseNs     int64 `json:"lease_ns,omitempty"`

	// info
	Weights    map[string]int  `json:"weights,omitempty"`
	QueueDepth int             `json:"queue_depth,omitempty"`
	Pipeline   int             `json:"pipeline,omitempty"`
	Sessions   int             `json:"sessions,omitempty"`
	Arrays     int             `json:"arrays,omitempty"`
	Metrics    json.RawMessage `json:"metrics,omitempty"`
}

// shapeReply is the successful reply to a rank-mesh newcomer (an
// attaching session, a joining I/O node): the deployment shape it must
// dial with and the tuning it shares.
func shapeReply(cfg core.Config) ctlReply {
	return ctlReply{
		OK:          true,
		Clients:     cfg.NumClients,
		Servers:     cfg.NumServers,
		Subchunk:    cfg.SubchunkBytes,
		OpTimeoutNs: int64(cfg.OpTimeout),
		PullRetries: cfg.PullRetries,
		MaxInflight: cfg.Sched.MaxInflight,
		Pipeline:    cfg.Pipeline,
	}
}

// coreConfig rebuilds, on the newcomer's side, the deployment view
// shapeReply advertised: the world shape (rank arithmetic and tags), the
// transfer tuning (MaxInflight included: it sizes a joined server's
// write window), and the service flag. Membership stays nil: a joined
// server plans purely from the Deads lists stamped on requests.
func (rep ctlReply) coreConfig() core.Config {
	return core.Config{
		NumClients:    rep.Clients,
		NumServers:    rep.Servers,
		SubchunkBytes: rep.Subchunk,
		OpTimeout:     time.Duration(rep.OpTimeoutNs),
		PullRetries:   rep.PullRetries,
		Pipeline:      rep.Pipeline,
		Service:       true,
		Sched:         core.SchedConfig{MaxInflight: rep.MaxInflight},
	}
}

// fail renders an error for the session channel; a typed sentinel
// travels by its core.SentinelName so the client can rebuild it.
func fail(err error) ctlReply {
	return ctlReply{OK: false, Error: err.Error(), Code: core.SentinelName(err)}
}

// maxCtlRequest caps one session-control request line. The largest a
// client sends, an open carrying an encoded array spec, is a few KiB;
// a connection whose request outgrows the cap is closed instead of
// buffered.
const maxCtlRequest = 64 << 10

// handleSession runs one control connection: requests in, replies out,
// detach (or, for a joiner, release of its slot) on disconnect. Runs on
// the hub's per-connection goroutine, which closes conn once this
// returns — as it does on a request line longer than maxCtlRequest.
func (d *Daemon) handleSession(conn net.Conn) {
	br := bufio.NewReaderSize(conn, maxCtlRequest)
	enc := json.NewEncoder(conn)
	var sess core.SessionInfo // ID 0 while no session is attached
	var claim core.Claim      // Epoch 0 while no slot is reserved
	defer func() { d.endSession(sess, claim) }()
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		var req ctlRequest
		if err := json.Unmarshal(line, &req); err != nil {
			return
		}
		var rep ctlReply
		switch req.Cmd {
		case "attach":
			if sess.ID != 0 || claim.Epoch != 0 {
				rep = fail(errors.New("panda: connection already holds a session or a server slot"))
				break
			}
			info, err := d.svc.Attach(req.Nodes, req.Tenant)
			if err != nil {
				rep = fail(err)
				break
			}
			sess = info
			d.tel.attach(info)
			rep = shapeReply(d.svc.Config())
			rep.Session, rep.Ranks, rep.SeqBase = info.ID, info.Ranks, info.SeqBase
			d.logf("session %d attached: %d nodes at ranks %v, tenant %q", info.ID, req.Nodes, info.Ranks, req.Tenant)
			crashPoint("post-attach")
		case "open":
			rep = d.handleOpen(sess.ID, req)
			crashPoint("post-open")
		case "info":
			cfg := d.svc.Config()
			var buf bytes.Buffer
			_ = d.reg.WriteJSON(&buf)
			rep = ctlReply{
				OK:          true,
				MaxInflight: cfg.Sched.MaxInflight,
				QueueDepth:  cfg.Sched.QueueDepth,
				Weights:     cfg.Sched.Weights,
				Pipeline:    cfg.Pipeline,
				Sessions:    len(d.svc.Sessions()),
				Arrays:      d.cat.Len(),
				Metrics:     json.RawMessage(buf.Bytes()),
			}
		case "server-join":
			// An I/O-node joiner asks for a pool slot. The reply carries
			// the deployment shape it must dial the mesh with; admission
			// happens when it says server-ready on this connection.
			if sess.ID != 0 || claim.Epoch != 0 {
				rep = fail(errors.New("panda: connection already holds a session or a server slot"))
				break
			}
			// The member, once gone, is cut off: its control connection
			// ends and the hub drops its rank, so the slot's next joiner
			// registers the rank at once.
			c, err := d.members.Reserve(req.Addr, d.svc.Clock().Now(), func(slot int) {
				conn.Close()
				d.hub.Sever(d.ccfg.ServerRank(slot))
			})
			if err != nil {
				rep = fail(err)
				break
			}
			claim = c
			rep = shapeReply(d.svc.Config())
			rep.Slot = c.Slot
			rep.HeartbeatNs, rep.LeaseNs = int64(d.members.HeartbeatEvery()), int64(d.members.LeaseTTL())
			d.logf("server joiner %q reserved slot %d", req.Addr, c.Slot)
		case "server-ready":
			// The joiner's rank is registered on the hub: admit it.
			rep = okOrFail(d.members.Admit(claim, d.svc.Clock().Now()))
		case "heartbeat":
			rep = okOrFail(d.members.Heartbeat(claim, d.svc.Clock().Now()))
		case "detach":
			d.endSession(sess, core.Claim{})
			sess = core.SessionInfo{}
			rep = ctlReply{OK: true}
		default:
			rep = fail(fmt.Errorf("panda: unknown session command %q", req.Cmd))
		}
		if err := enc.Encode(rep); err != nil {
			return
		}
	}
}

// okOrFail is the reply to a request that returns nothing but err.
func okOrFail(err error) ctlReply {
	if err != nil {
		return fail(err)
	}
	return ctlReply{OK: true}
}

// endSession detaches a control connection's session, if it has one,
// and releases the slot its server-join reserved, if it holds one: the
// end of a joiner's connection is its loss (core.Membership.Release).
// A daemon drain tells its members to exit, so their hang-ups after it
// began are not losses.
func (d *Daemon) endSession(sess core.SessionInfo, claim core.Claim) {
	if claim.Epoch != 0 && !d.svc.Draining() {
		d.members.Release(claim)
	}
	if sess.ID == 0 {
		return
	}
	d.svc.Detach(sess.ID)
	d.tel.detach(sess)
	d.logf("session %d detached", sess.ID)
}

// handleOpen resolves one open/create request against the catalog.
func (d *Daemon) handleOpen(sid int, req ctlRequest) ctlReply {
	if req.Name == "" && len(req.Spec) == 0 {
		return fail(errors.New("panda: open without a name"))
	}
	if len(req.Spec) == 0 {
		e, err := d.catalogued(req.Name)
		d.tel.opened(sid, req.Name, false, err)
		if err != nil {
			return fail(err)
		}
		return ctlReply{OK: true, Spec: e.Spec}
	}
	spec, err := core.DecodeSpec(req.Spec)
	if err != nil {
		return fail(err)
	}
	err = d.openSpec(spec, req.Create)
	d.tel.opened(sid, spec.Name, req.Create, err)
	if err != nil {
		return fail(err)
	}
	return ctlReply{OK: true, Spec: req.Spec}
}

// openSpec resolves a session's array declaration against the catalog.
// A new name with create set is catalogued — checked and added under
// the catalog's one lock, so of two sessions racing to create a name
// one wins and the other is judged against the winner's schema. An
// existing name must match the stored schema's fingerprint exactly or
// the open fails with ErrSchemaMismatch: mismatched decompositions
// would silently scatter bytes into the wrong regions.
func (d *Daemon) openSpec(spec core.ArraySpec, create bool) error {
	e, err := d.catalogued(spec.Name)
	if create && errors.Is(err, ErrUnknownArray) {
		e, err = d.cat.Add(storage.CatalogEntry{Name: spec.Name, Spec: core.EncodeSpec(spec)})
		if err != nil {
			return fmt.Errorf("panda: catalog: %w", err)
		}
	}
	if err != nil {
		return err
	}
	stored, err := core.DecodeSpec(e.Spec)
	if err != nil {
		return fmt.Errorf("panda: catalog entry %q: %w", spec.Name, err)
	}
	if fp, cfp := core.SpecFingerprint(spec), core.SpecFingerprint(stored); fp != cfp {
		return fmt.Errorf("panda: array %q: session fingerprint %#x, catalog %#x: %w",
			spec.Name, fp, cfp, ErrSchemaMismatch)
	}
	return nil
}

// catalogued returns the catalog's entry for name, or ErrUnknownArray.
func (d *Daemon) catalogued(name string) (storage.CatalogEntry, error) {
	e, ok := d.cat.Get(name)
	if !ok {
		return e, fmt.Errorf("panda: array %q: %w", name, ErrUnknownArray)
	}
	return e, nil
}
