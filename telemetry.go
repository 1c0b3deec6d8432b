package panda

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"panda/internal/core"
	"panda/internal/obs"
)

// The daemon telemetry plane.
//
// A resident service must be able to show the global I/O picture it is
// exploiting — the paper's whole thesis is that the servers have it.
// Three instruments cover the time scales an operator cares about:
//
//   - the flight recorder: the obs span ring stays on inside the
//     service at ring-buffer cost (one mutexed slot store per span),
//     and is snapshotted to a Perfetto-loadable trace-<ts>.json in the
//     data dir when an anomaly fires or an operator asks — so the
//     microsecond-level story of an op that went slow is recoverable
//     *after the fact*;
//   - the SLO watchdog: per-tenant completion-latency objectives
//     (live-reloadable tuning) checked against every master-server
//     OpSummary, plus a ticker that flags in-flight ops stuck past a
//     multiple of their objective — violations count, log a structured
//     event, and trigger a flight-recorder dump;
//   - the structured event log: JSON-lines lifecycle events
//     (startup/attach/open/detach/reconfigure/slo_violation/dump/
//     drain) with sid/tenant/op fields, flushed per line so `tail -f`
//     is a live feed and a crash loses nothing.
//
// The HTTP plane (-http on pandad) serves all of it: /metrics,
// /healthz, /readyz, /sessions, /slo, /dump, /status, /debug/pprof.
// cmd/pandastat is the matching CLI.

// watchdogInterval is how often the SLO watchdog scans in-flight
// operations for stuck ones.
const watchdogInterval = 50 * time.Millisecond

// autoDumpMinInterval rate-limits violation-triggered flight-recorder
// dumps; operator-requested dumps (/dump, SIGUSR1) are never limited.
const autoDumpMinInterval = 5 * time.Second

// recentViolations bounds the /slo endpoint's violation ring.
const recentViolations = 32

// stuckMult is the in-flight multiple of the objective past which an
// operation is flagged stuck.
const stuckMult = 4

// sloPolicy is the resolved watchdog configuration.
type sloPolicy struct {
	objectives map[string]time.Duration // tenant -> completion objective
	def        time.Duration            // objective for unlisted tenants (0 = none)
}

// sloPolicy resolves the tuning's SLO knobs.
func (t Tuning) sloPolicy() sloPolicy {
	p := sloPolicy{def: time.Duration(t.SLODefaultMs) * time.Millisecond}
	if len(t.SLOms) > 0 {
		p.objectives = make(map[string]time.Duration, len(t.SLOms))
		for tenant, ms := range t.SLOms {
			p.objectives[tenant] = time.Duration(ms) * time.Millisecond
		}
	}
	return p
}

// objective returns a tenant's completion objective (0 = none set).
func (p sloPolicy) objective(tenant string) time.Duration {
	if d, ok := p.objectives[tenant]; ok {
		return d
	}
	return p.def
}

// SessionStat is one row of the daemon's live session table, served
// as JSON by /sessions and rendered by pandastat.
type SessionStat struct {
	SID         int    `json:"sid"`
	Tenant      string `json:"tenant"`
	Nodes       int    `json:"nodes"`
	Ranks       []int  `json:"ranks"`
	Inflight    int    `json:"inflight"`
	Ops         int64  `json:"ops"`
	FailedOps   int64  `json:"failed_ops"`
	Bytes       int64  `json:"bytes"`
	AttachAgeMs int64  `json:"attach_age_ms"`
}

// SLOViolation describes one watchdog finding: an operation that
// completed past its tenant's objective ("completed_slow") or is still
// in flight past stuckMult times it ("stuck").
type SLOViolation struct {
	Time        time.Time `json:"ts"`
	Kind        string    `json:"kind"`
	SID         int       `json:"sid"`
	Tenant      string    `json:"tenant"`
	Seq         int       `json:"seq"`
	Op          string    `json:"op"`
	ElapsedMs   int64     `json:"elapsed_ms"`
	ObjectiveMs int64     `json:"objective_ms"`
}

// SLOStatus is the /slo endpoint's payload: the live policy plus the
// violation tally and the most recent findings.
type SLOStatus struct {
	DefaultMs  int64            `json:"default_ms"`
	StuckMult  int              `json:"stuck_mult"`
	TenantMs   map[string]int64 `json:"tenant_ms,omitempty"`
	Violations int64            `json:"violations"`
	Recent     []SLOViolation   `json:"recent,omitempty"`
}

// sessionStat is the telemetry plane's mutable per-session record.
type sessionStat struct {
	SessionStat
	attached  time.Time
	gaugeName string
}

// opStat tracks one dispatched-but-unretired operation for the stuck
// scan.
type opStat struct {
	seq     int
	sid     int
	tenant  string
	op      string
	started time.Time
	flagged bool // already reported stuck; completion won't re-report
}

// telemetry is the daemon's observer: it consumes the core's
// OpStart/OpLog hooks and the session lifecycle, and serves the
// results to the watchdog and the HTTP plane.
type telemetry struct {
	reg    *obs.Registry
	rec    *obs.Recorder
	events *obs.EventLog
	dir    string // trace dumps land here; "" disables dumps
	logf   func(string, ...any)

	violations *obs.Counter
	dumps      *obs.Counter

	mu       sync.Mutex
	slo      sloPolicy
	sessions map[int]*sessionStat
	inflight map[int]*opStat
	recent   []SLOViolation
	lastAuto time.Time

	stop chan struct{}
	wg   sync.WaitGroup
}

func newTelemetry(reg *obs.Registry, rec *obs.Recorder, events *obs.EventLog, dir string, logf func(string, ...any)) *telemetry {
	t := &telemetry{
		reg:        reg,
		rec:        rec,
		events:     events,
		dir:        dir,
		logf:       logf,
		violations: reg.Counter("slo_violations"),
		dumps:      reg.Counter("trace_dumps"),
		sessions:   make(map[int]*sessionStat),
		inflight:   make(map[int]*opStat),
	}
	reg.Func("sessions_attached", func() int64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return int64(len(t.sessions))
	})
	return t
}

// setSLO installs a (possibly reloaded) watchdog policy; in-flight
// checks use it from the next scan on.
func (t *telemetry) setSLO(p sloPolicy) {
	t.mu.Lock()
	t.slo = p
	t.mu.Unlock()
}

// tenantLabel matches the scheduler's metric naming for the empty
// tenant.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// attach records a new session and registers its labeled in-flight
// gauge.
func (t *telemetry) attach(info core.SessionInfo, nodes int) {
	sid := info.ID
	ss := &sessionStat{
		SessionStat: SessionStat{SID: sid, Tenant: info.Tenant, Nodes: nodes, Ranks: append([]int(nil), info.Ranks...)},
		attached:    time.Now(),
		gaugeName:   obs.LabelName("session_inflight", "sid", strconv.Itoa(sid)),
	}
	t.mu.Lock()
	t.sessions[sid] = ss
	t.mu.Unlock()
	t.reg.Func(ss.gaugeName, func() int64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		if s := t.sessions[sid]; s != nil {
			return int64(s.Inflight)
		}
		return 0
	})
	t.events.Emit("attach", map[string]any{
		"sid": sid, "tenant": info.Tenant, "nodes": nodes, "ranks": info.Ranks,
	})
}

// detach retires a session's record and gauge.
func (t *telemetry) detach(sid int) {
	t.mu.Lock()
	ss := t.sessions[sid]
	delete(t.sessions, sid)
	t.mu.Unlock()
	if ss == nil {
		return
	}
	t.reg.Unregister(ss.gaugeName)
	t.events.Emit("detach", map[string]any{
		"sid": sid, "tenant": ss.Tenant, "ops": ss.Ops, "bytes": ss.Bytes, "failed_ops": ss.FailedOps,
	})
}

// opened logs an array open/create resolved for a session.
func (t *telemetry) opened(sid int, name string, create bool, err error) {
	f := map[string]any{"sid": sid, "array": name, "create": create}
	if err != nil {
		f["error"] = err.Error()
	}
	t.events.Emit("open", f)
}

// opStart is the core.Config.OpStart hook: the master server dispatched
// an operation.
func (t *telemetry) opStart(server, seq int, tenant, op string) {
	if server != 0 {
		return
	}
	sid := core.SessionIDOfSeq(seq)
	t.mu.Lock()
	t.inflight[seq] = &opStat{seq: seq, sid: sid, tenant: tenant, op: op, started: time.Now()}
	if ss := t.sessions[sid]; ss != nil {
		ss.Inflight++
	}
	t.mu.Unlock()
	t.reg.Gauge("tenant_inflight_" + tenantLabel(tenant)).Add(1)
}

// opDone is folded into the daemon's OpLog: every server's summary
// updates the byte accounting; the master's closes the in-flight
// record and runs the completion-latency SLO check.
func (t *telemetry) opDone(sum core.OpSummary) {
	sid := core.SessionIDOfSeq(sum.Seq)
	var v *SLOViolation
	t.mu.Lock()
	ss := t.sessions[sid]
	if ss != nil {
		ss.Bytes += sum.Bytes
	}
	if sum.Server == 0 {
		flagged := false
		if os := t.inflight[sum.Seq]; os != nil {
			flagged = os.flagged
			delete(t.inflight, sum.Seq)
			t.mu.Unlock()
			t.reg.Gauge("tenant_inflight_" + tenantLabel(sum.Tenant)).Add(-1)
			t.mu.Lock()
			ss = t.sessions[sid] // re-look-up: the session may detach between locks
		}
		if ss != nil {
			ss.Ops++
			if ss.Inflight > 0 {
				ss.Inflight--
			}
			if sum.Err != nil {
				ss.FailedOps++
			}
		}
		if obj := t.slo.objective(sum.Tenant); !flagged && obj > 0 && sum.Err == nil && sum.Elapsed > obj {
			v = &SLOViolation{
				Time: time.Now(), Kind: "completed_slow", SID: sid, Tenant: sum.Tenant,
				Seq: sum.Seq, Op: sum.Op,
				ElapsedMs: sum.Elapsed.Milliseconds(), ObjectiveMs: obj.Milliseconds(),
			}
			t.recordViolationLocked(*v)
		}
	}
	t.mu.Unlock()
	if v != nil {
		t.reportViolation(*v)
	}
}

// recordViolationLocked appends to the recent ring. Called under t.mu.
func (t *telemetry) recordViolationLocked(v SLOViolation) {
	t.recent = append(t.recent, v)
	if len(t.recent) > recentViolations {
		t.recent = t.recent[len(t.recent)-recentViolations:]
	}
}

// reportViolation counts, logs and (rate-limited) dumps one violation.
// Called outside t.mu.
func (t *telemetry) reportViolation(v SLOViolation) {
	t.violations.Add(1)
	t.events.Emit("slo_violation", map[string]any{
		"kind": v.Kind, "sid": v.SID, "tenant": v.Tenant, "seq": v.Seq, "op": v.Op,
		"elapsed_ms": v.ElapsedMs, "objective_ms": v.ObjectiveMs,
	})
	t.logf("slo violation: %s sid=%d tenant=%q seq=%d op=%s elapsed=%dms objective=%dms",
		v.Kind, v.SID, v.Tenant, v.Seq, v.Op, v.ElapsedMs, v.ObjectiveMs)
	t.maybeAutoDump()
}

// maybeAutoDump triggers a violation dump unless one ran recently.
func (t *telemetry) maybeAutoDump() {
	t.mu.Lock()
	if t.dir == "" || time.Since(t.lastAuto) < autoDumpMinInterval {
		t.mu.Unlock()
		return
	}
	t.lastAuto = time.Now()
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if _, err := t.dump("slo_violation"); err != nil {
			t.logf("violation dump failed: %v", err)
		}
	}()
}

// dump snapshots the flight recorder to trace-<ts>.json in the data
// dir and returns the path. The snapshot is taken under one recorder
// lock (recording continues immediately); marshalling and the write
// happen outside any lock.
func (t *telemetry) dump(reason string) (string, error) {
	if t.dir == "" {
		return "", errors.New("panda: trace dump needs a data directory (daemon started with Dir unset)")
	}
	tracks, events, dropped := t.rec.Snapshot()
	if len(events) == 0 {
		return "", errors.New("panda: flight recorder holds no events yet")
	}
	b, err := json.Marshal(obs.ChromeTraceFromSnapshot(tracks, events))
	if err != nil {
		return "", err
	}
	path := filepath.Join(t.dir, fmt.Sprintf("trace-%d.json", time.Now().UnixNano()))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	t.dumps.Add(1)
	t.events.Emit("dump", map[string]any{"path": path, "reason": reason, "trace_events": len(events), "overwritten": dropped})
	t.logf("flight recorder dumped: %s (%d events, reason %s)", path, len(events), reason)
	return path, nil
}

// startWatchdog begins the stuck-op scan loop.
func (t *telemetry) startWatchdog() {
	stop := make(chan struct{})
	t.stop = stop
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(watchdogInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.scanStuck()
			}
		}
	}()
}

// stopWatchdog halts the scan loop and waits out in-flight dumps.
func (t *telemetry) stopWatchdog() {
	if t.stop != nil {
		close(t.stop)
		t.stop = nil
	}
	t.wg.Wait()
}

// scanStuck flags in-flight operations that have exceeded stuckMult
// times their tenant's objective. Each op is reported once.
func (t *telemetry) scanStuck() {
	now := time.Now()
	var found []SLOViolation
	t.mu.Lock()
	for _, os := range t.inflight {
		if os.flagged {
			continue
		}
		obj := t.slo.objective(os.tenant)
		if obj <= 0 {
			continue
		}
		if age := now.Sub(os.started); age > stuckMult*obj {
			os.flagged = true
			v := SLOViolation{
				Time: now, Kind: "stuck", SID: os.sid, Tenant: os.tenant, Seq: os.seq, Op: os.op,
				ElapsedMs: age.Milliseconds(), ObjectiveMs: obj.Milliseconds(),
			}
			t.recordViolationLocked(v)
			found = append(found, v)
		}
	}
	t.mu.Unlock()
	for _, v := range found {
		t.reportViolation(v)
	}
}

// snapshotSessions returns the live session table, sorted by SID.
func (t *telemetry) snapshotSessions() []SessionStat {
	now := time.Now()
	t.mu.Lock()
	out := make([]SessionStat, 0, len(t.sessions))
	for _, ss := range t.sessions {
		row := ss.SessionStat
		row.Ranks = append([]int(nil), ss.Ranks...)
		row.AttachAgeMs = now.Sub(ss.attached).Milliseconds()
		out = append(out, row)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].SID < out[j].SID })
	return out
}

// snapshotSLO returns the /slo payload.
func (t *telemetry) snapshotSLO() SLOStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := SLOStatus{
		DefaultMs:  t.slo.def.Milliseconds(),
		StuckMult:  stuckMult,
		Violations: t.violations.Value(),
		Recent:     append([]SLOViolation(nil), t.recent...),
	}
	if len(t.slo.objectives) > 0 {
		st.TenantMs = make(map[string]int64, len(t.slo.objectives))
		for tenant, d := range t.slo.objectives {
			st.TenantMs[tenant] = d.Milliseconds()
		}
	}
	return st
}

// Sessions returns the daemon's live session table: who is attached,
// under which tenant, with how many operations in flight and bytes
// moved. The /sessions endpoint serves the same rows.
func (d *Daemon) Sessions() []SessionStat { return d.tel.snapshotSessions() }

// SLOStatus returns the watchdog's live policy and violation history.
func (d *Daemon) SLOStatus() SLOStatus { return d.tel.snapshotSLO() }

// DumpTrace snapshots the always-on flight recorder to a
// Perfetto-loadable trace-<ts>.json in the data directory and returns
// its path. Operators reach it through /dump or SIGUSR1; the SLO
// watchdog calls it (rate-limited) on violations.
func (d *Daemon) DumpTrace(reason string) (string, error) { return d.tel.dump(reason) }

// telemetryHandler builds the daemon's HTTP plane: the obs node
// surface (/metrics, /status, /debug/pprof) plus the daemon-level
// endpoints.
func (d *Daemon) telemetryHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(d.reg, d.rec, d.statusHeader, d.svc.Draining))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if d.svc.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"sessions": d.Sessions()})
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, d.SLOStatus())
	})
	mux.HandleFunc("/dump", func(w http.ResponseWriter, _ *http.Request) {
		path, err := d.DumpTrace("http")
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, map[string]any{"path": path})
	})
	mux.HandleFunc("/servers", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"epoch":   d.members.Epoch(),
			"active":  d.members.ActiveCount(),
			"servers": d.Servers(),
		})
	})
	mux.HandleFunc("/drain-server", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		slot, err := strconv.Atoi(r.URL.Query().Get("slot"))
		if err != nil {
			http.Error(w, "drain-server?slot=N", http.StatusBadRequest)
			return
		}
		if err := d.DrainServer(slot); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, map[string]any{
			"drained": slot,
			"epoch":   d.members.Epoch(),
			"active":  d.members.ActiveCount(),
			"servers": d.Servers(),
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// statusHeader is the daemon's contribution to the obs /status page:
// the live session table.
func (d *Daemon) statusHeader(w io.Writer) {
	sessions := d.Sessions()
	fmt.Fprintf(w, "sessions (%d):\n", len(sessions))
	for _, s := range sessions {
		fmt.Fprintf(w, "  sid=%-4d tenant=%-12q nodes=%d inflight=%d ops=%-6d failed=%d bytes=%-12d age=%s\n",
			s.SID, s.Tenant, s.Nodes, s.Inflight, s.Ops, s.FailedOps, s.Bytes,
			(time.Duration(s.AttachAgeMs) * time.Millisecond).Round(time.Millisecond))
	}
}
