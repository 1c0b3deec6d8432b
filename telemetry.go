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

// sessionCounts is what the telemetry plane adds to a session the
// core already records (Service.Sessions): its completed operations,
// failed ones among them, and payload bytes.
type sessionCounts struct {
	ops, failed, bytes int64
}

// tenantMetrics are one tenant's instruments, resolved once when the
// tenant is first seen so an operation's summary costs no name lookup.
// Bound: one set — tenant_ops_<t>, tenant_bytes_<t>, tenant_inflight_<t>
// — per distinct tenant name the daemon has served, kept for its life,
// as the scheduler keeps one DRR queue per tenant.
type tenantMetrics struct {
	ops, bytes *obs.Counter
}

// telemetry is the daemon's observer. What is attached and what is in
// flight it reads from the core's own tables (Service.Sessions,
// Service.Dispatched); it adds the per-session and per-tenant tallies
// the core's OpLog summaries feed, and serves it all to the watchdog
// and the HTTP plane.
type telemetry struct {
	svc    *core.Service
	reg    *obs.Registry
	rec    *obs.Recorder
	events *obs.EventLog
	dir    string // trace dumps land here; "" disables dumps
	logf   func(string, ...any)

	violations *obs.Counter
	dumps      *obs.Counter

	mu      sync.Mutex
	slo     sloPolicy
	counts  map[int]*sessionCounts    // by sid; pruned to the attached sessions by every scan
	tenants map[string]*tenantMetrics // by tenantLabel
	// reported marks, by seq, a live dispatch the watchdog has already
	// spoken for — flagged stuck, or completed — so it reports each
	// dispatch at most once. Every scan keeps only the seqs still in
	// the dispatch table.
	reported map[int]bool
	recent   []SLOViolation
	lastAuto time.Time

	stop chan struct{}
	wg   sync.WaitGroup
}

func newTelemetry(svc *core.Service, reg *obs.Registry, rec *obs.Recorder, events *obs.EventLog, dir string, logf func(string, ...any)) *telemetry {
	t := &telemetry{
		svc:        svc,
		reg:        reg,
		rec:        rec,
		events:     events,
		dir:        dir,
		logf:       logf,
		violations: reg.Counter("slo_violations"),
		dumps:      reg.Counter("trace_dumps"),
		counts:     make(map[int]*sessionCounts),
		tenants:    make(map[string]*tenantMetrics),
		reported:   make(map[int]bool),
	}
	reg.Func("sessions_attached", func() int64 { return int64(len(svc.Sessions())) })
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

// tenantLocked returns a tenant's instruments, resolving them on first
// sight. Called under t.mu.
func (t *telemetry) tenantLocked(tenant string) *tenantMetrics {
	label := tenantLabel(tenant)
	tm := t.tenants[label]
	if tm == nil {
		tm = &tenantMetrics{ops: t.reg.Counter("tenant_ops_" + label), bytes: t.reg.Counter("tenant_bytes_" + label)}
		t.tenants[label] = tm
		t.reg.Func("tenant_inflight_"+label, func() int64 {
			return t.inflight(func(op core.DispatchedOp) bool { return tenantLabel(op.Tenant) == label })
		})
	}
	return tm
}

// inflight counts the dispatched operations match accepts.
func (t *telemetry) inflight(match func(core.DispatchedOp) bool) (n int64) {
	for _, op := range t.svc.Dispatched() {
		if match(op) {
			n++
		}
	}
	return n
}

// sessionGauge names a session's in-flight gauge.
func sessionGauge(sid int) string {
	return obs.LabelName("session_inflight", "sid", strconv.Itoa(sid))
}

// attach registers a daemon session's labeled in-flight gauge and logs
// the attach.
func (t *telemetry) attach(info core.SessionInfo) {
	sid := info.ID
	t.mu.Lock()
	t.tenantLocked(info.Tenant)
	t.mu.Unlock()
	t.reg.Func(sessionGauge(sid), func() int64 {
		return t.inflight(func(op core.DispatchedOp) bool { return core.SessionIDOfSeq(op.Seq) == sid })
	})
	t.events.Emit("attach", map[string]any{
		"sid": sid, "tenant": info.Tenant, "nodes": len(info.Ranks), "ranks": info.Ranks,
	})
}

// detach retires a daemon session's tallies and gauge and logs the
// detach.
func (t *telemetry) detach(info core.SessionInfo) {
	t.mu.Lock()
	c := t.counts[info.ID]
	delete(t.counts, info.ID)
	t.mu.Unlock()
	if c == nil {
		c = &sessionCounts{}
	}
	t.reg.Unregister(sessionGauge(info.ID))
	t.events.Emit("detach", map[string]any{
		"sid": info.ID, "tenant": info.Tenant, "ops": c.ops, "bytes": c.bytes, "failed_ops": c.failed,
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

// opDone is folded into the daemon's OpLog: every server's summary
// counts its bytes; the master's counts the operation — once per
// dispatch, failed ones included — and runs the completion-latency SLO
// check.
func (t *telemetry) opDone(sum core.OpSummary) {
	sid := core.SessionIDOfSeq(sum.Seq)
	master := sum.Server == 0
	var v *SLOViolation
	t.mu.Lock()
	tm := t.tenantLocked(sum.Tenant)
	c := t.counts[sid]
	if c == nil {
		c = &sessionCounts{}
		t.counts[sid] = c
	}
	c.bytes += sum.Bytes
	if master {
		c.ops++
		if sum.Err != nil {
			c.failed++
		}
		if obj := t.slo.objective(sum.Tenant); obj > 0 && !t.reported[sum.Seq] {
			t.reported[sum.Seq] = true // completed: the stuck scan must not flag it now
			if sum.Err == nil && sum.Elapsed > obj {
				v = &SLOViolation{
					Time: time.Now(), Kind: "completed_slow", SID: sid, Tenant: sum.Tenant,
					Seq: sum.Seq, Op: sum.Op,
					ElapsedMs: sum.Elapsed.Milliseconds(), ObjectiveMs: obj.Milliseconds(),
				}
				t.recordViolationLocked(*v)
			}
		}
	}
	t.mu.Unlock()
	tm.bytes.Add(sum.Bytes)
	if master {
		tm.ops.Add(1)
	}
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
				t.scan()
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

// scan flags dispatched operations that have been in flight past
// stuckMult times their tenant's objective, each dispatch once, and
// drops the tallies of sessions that have detached (a migration's
// internal session detaches from the Service alone). The table reads
// are taken under t.mu, so a mark set by a completion is never dropped
// while its seq is still in the table.
func (t *telemetry) scan() {
	var found []SLOViolation
	t.mu.Lock()
	now := t.svc.Clock().Now()
	reported := make(map[int]bool, len(t.reported))
	for _, op := range t.svc.Dispatched() {
		if t.reported[op.Seq] {
			reported[op.Seq] = true
			continue
		}
		obj := t.slo.objective(op.Tenant)
		if age := now - op.At; obj > 0 && age > stuckMult*obj {
			reported[op.Seq] = true
			v := SLOViolation{
				Time: time.Now(), Kind: "stuck", SID: core.SessionIDOfSeq(op.Seq), Tenant: op.Tenant,
				Seq: op.Seq, Op: op.Op, ElapsedMs: age.Milliseconds(), ObjectiveMs: obj.Milliseconds(),
			}
			t.recordViolationLocked(v)
			found = append(found, v)
		}
	}
	t.reported = reported
	counts := make(map[int]*sessionCounts, len(t.counts))
	for _, info := range t.svc.Sessions() {
		if c := t.counts[info.ID]; c != nil {
			counts[info.ID] = c
		}
	}
	t.counts = counts
	t.mu.Unlock()
	for _, v := range found {
		t.reportViolation(v)
	}
}

// snapshotSessions returns the live session table, sorted by SID: every
// session attached to the Service, with its operations in flight from
// the dispatch table and its tallies.
func (t *telemetry) snapshotSessions() []SessionStat {
	infos := t.svc.Sessions()
	ops := t.svc.Dispatched()
	out := make([]SessionStat, len(infos))
	t.mu.Lock()
	for i, info := range infos {
		out[i] = SessionStat{SID: info.ID, Tenant: info.Tenant, Nodes: len(info.Ranks),
			Ranks: info.Ranks, AttachAgeMs: time.Since(info.Attached).Milliseconds()}
		if c := t.counts[info.ID]; c != nil {
			out[i].Ops, out[i].FailedOps, out[i].Bytes = c.ops, c.failed, c.bytes
		}
		for _, op := range ops {
			if core.SessionIDOfSeq(op.Seq) == info.ID {
				out[i].Inflight++
			}
		}
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
