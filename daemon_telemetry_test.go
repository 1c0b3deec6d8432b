package panda

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"panda/internal/core"
	"panda/internal/obs"
)

// startTelemetryDaemon runs a daemon with the HTTP plane bound to an
// ephemeral port.
func startTelemetryDaemon(t *testing.T, dir string, tuning Tuning) *Daemon {
	t.Helper()
	d, err := StartDaemon(DaemonConfig{
		Dir:         dir,
		ClientSlots: 8,
		IONodes:     2,
		OpTimeout:   30 * time.Second,
		Tuning:      tuning,
		HTTPAddr:    "127.0.0.1:0",
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("StartDaemon: %v", err)
	}
	return d
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, b
}

// eventsOf filters the daemon's event log by type.
func eventsOf(t *testing.T, dir, typ string) []map[string]any {
	t.Helper()
	all, err := obs.ReadEventLog(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatalf("ReadEventLog: %v", err)
	}
	var out []map[string]any
	for _, e := range all {
		if e["event"] == typ {
			out = append(out, e)
		}
	}
	return out
}

// TestDaemonSLOReloadUnderLoad is the PR's acceptance scenario: a
// tenant writes timesteps with no objective set, the operator SIGHUPs
// in a 1ms objective mid-load, and every completion thereafter is a
// violation — counted, logged with the right sid and tenant, visible
// over /metrics, and answered with a flight-recorder dump — while the
// workload itself never fails an operation.
func TestDaemonSLOReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	d := startTelemetryDaemon(t, dir, Tuning{MaxInflight: 2})
	defer d.Drain() //nolint:errcheck

	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 1, Tenant: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	sid := s.ID()
	// 4 MiB a timestep: moving it through the hub outlasts the 1ms
	// objective below however fast the disk syncs (sessionArray's 512
	// bytes could commit in half a millisecond, and then no completion
	// was a violation).
	a, err := NewArray("SLO", []int{1024, 1024}, 4,
		NewLayout("mem", []int{1}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{2}), []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}

	// The reload lands mid-load by handshake, not by sleeping: the writer
	// reports once it is under way and holds its last five timesteps
	// until the objective is in force, however fast the disk syncs.
	underWay, reloaded := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- s.Run(func(n *Node) error {
			buf := make([]byte, n.ChunkBytes(a))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
			g := NewGroup("w")
			g.Include(a)
			for i := 0; i < 30; i++ {
				switch i {
				case 5:
					close(underWay)
				case 25:
					<-reloaded
				}
				fillPattern(buf, int64(i))
				if err := n.Timestep(g); err != nil {
					return fmt.Errorf("timestep %d: %w", i, err)
				}
			}
			return nil
		})
	}()
	select {
	case <-underWay:
	case err := <-done:
		t.Fatalf("writes ended before the reload: %v", err)
	}
	// The reload that tightens the screw: a 1ms objective that a real
	// disk write cannot meet.
	if err := d.Reload(Tuning{MaxInflight: 2, SLOms: map[string]int64{"sim": 1}}); err != nil {
		t.Fatalf("reload: %v", err)
	}
	close(reloaded)
	if err := <-done; err != nil {
		t.Fatalf("writes failed across SLO reload: %v", err)
	}

	// The workload itself stayed healthy: violations are observations,
	// not failures.
	var row *SessionStat
	for _, r := range d.Sessions() {
		if r.SID == sid {
			row = &r
			break
		}
	}
	if row == nil {
		t.Fatalf("session %d missing from live table: %+v", sid, d.Sessions())
	}
	if row.FailedOps != 0 {
		t.Fatalf("SLO violations must not fail ops: %d failed", row.FailedOps)
	}
	if row.Ops == 0 || row.Bytes == 0 {
		t.Fatalf("session table did not account the workload: %+v", *row)
	}

	st := d.SLOStatus()
	if st.Violations == 0 {
		t.Fatal("no SLO violations counted after tightening the objective to 1ms under load")
	}
	if len(st.Recent) == 0 {
		t.Fatal("no recent violations recorded")
	}
	for _, v := range st.Recent {
		if v.Tenant != "sim" || v.SID != sid {
			t.Fatalf("violation misattributed: %+v (want tenant=sim sid=%d)", v, sid)
		}
		if v.ObjectiveMs != 1 || v.ElapsedMs < 1 {
			t.Fatalf("violation timings wrong: %+v", v)
		}
	}

	// The structured event log carries the same finding.
	evs := eventsOf(t, dir, "slo_violation")
	if len(evs) == 0 {
		t.Fatal("no slo_violation event in events.jsonl")
	}
	if got := evs[0]["tenant"]; got != "sim" {
		t.Fatalf("violation event tenant = %v, want sim", got)
	}
	if got := evs[0]["sid"]; got != float64(sid) {
		t.Fatalf("violation event sid = %v, want %d", got, sid)
	}

	// The counter is scrapeable over the HTTP plane.
	code, body := httpGet(t, "http://"+d.HTTPAddr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	var violations int64
	if err := json.Unmarshal(metrics["slo_violations"], &violations); err != nil || violations == 0 {
		t.Fatalf("slo_violations not scrapeable: %s (err %v)", metrics["slo_violations"], err)
	}
	// Thirty identical timesteps plan once per I/O node: every executor
	// after the first finds its node's plan cached, reload or no reload.
	var hits, misses int64
	json.Unmarshal(metrics["plan_cache_hits"], &hits)     //nolint:errcheck // zero fails below
	json.Unmarshal(metrics["plan_cache_misses"], &misses) //nolint:errcheck
	if hits != 2*29 || misses != 2 {
		t.Fatalf("plan_cache_hits, plan_cache_misses = %d, %d after 30 timesteps on 2 I/O nodes, want 58 and 2", hits, misses)
	}

	// The violation triggered a flight-recorder dump, and the dump is a
	// valid Chrome trace. The dump runs asynchronously; wait it out.
	var dumps []string
	for wait := 0; wait < 100; wait++ {
		dumps, _ = filepath.Glob(filepath.Join(dir, "trace-*.json"))
		if len(dumps) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(dumps) == 0 {
		t.Fatal("violation did not dump the flight recorder")
	}
	raw, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ParseChromeTrace(raw)
	if err != nil {
		t.Fatalf("dumped trace invalid: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("dumped trace is empty")
	}
}

// TestDaemonHTTPPlane walks every telemetry endpoint against a live
// daemon with one attached session.
func TestDaemonHTTPPlane(t *testing.T) {
	dir := t.TempDir()
	d := startTelemetryDaemon(t, dir, Tuning{MaxInflight: 2, SLODefaultMs: 30_000})
	base := "http://" + d.HTTPAddr()

	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 2, Tenant: "viz"})
	if err != nil {
		t.Fatal(err)
	}
	a := sessionArray(t, "H", 2)
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	err = s.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		fillPattern(buf, int64(n.Rank()))
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		return n.WriteArray(a)
	})
	if err != nil {
		t.Fatal(err)
	}

	if code, body := httpGet(t, base+"/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := httpGet(t, base+"/readyz"); code != 200 || string(body) != "ready\n" {
		t.Fatalf("/readyz: %d %q", code, body)
	}

	var sessions struct {
		Sessions []SessionStat `json:"sessions"`
	}
	code, body := httpGet(t, base+"/sessions")
	if code != 200 {
		t.Fatalf("/sessions: status %d", code)
	}
	if err := json.Unmarshal(body, &sessions); err != nil {
		t.Fatalf("/sessions not JSON: %v", err)
	}
	if len(sessions.Sessions) != 1 {
		t.Fatalf("/sessions rows = %d, want 1: %s", len(sessions.Sessions), body)
	}
	row := sessions.Sessions[0]
	if row.SID != s.ID() || row.Tenant != "viz" || row.Nodes != 2 || row.Ops == 0 || row.Bytes == 0 {
		t.Fatalf("/sessions row wrong: %+v", row)
	}

	var slo SLOStatus
	code, body = httpGet(t, base+"/slo")
	if code != 200 {
		t.Fatalf("/slo: status %d", code)
	}
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatalf("/slo not JSON: %v", err)
	}
	if slo.DefaultMs != 30_000 || slo.Violations != 0 {
		t.Fatalf("/slo wrong: %+v", slo)
	}

	var metrics map[string]json.RawMessage
	code, body = httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	var attached int64
	if err := json.Unmarshal(metrics["sessions_attached"], &attached); err != nil || attached != 1 {
		t.Fatalf("sessions_attached = %s, want 1 (err %v)", metrics["sessions_attached"], err)
	}
	name := obs.LabelName("session_inflight", "sid", fmt.Sprint(s.ID()))
	if _, ok := metrics[name]; !ok {
		t.Fatalf("per-session gauge %q missing from /metrics", name)
	}

	// /status (the obs page) shows serving state and scheduler line.
	code, body = httpGet(t, base+"/status")
	if code != 200 {
		t.Fatalf("/status: status %d", code)
	}
	for _, want := range []string{"state: serving", "scheduler:", "sessions (1):"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/status missing %q:\n%s", want, body)
		}
	}

	// Detach retires the session's row and gauge. Close's detach is
	// asynchronous (closing the control connection detaches), so poll.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	retired := false
	for wait := 0; wait < 100 && !retired; wait++ {
		_, body = httpGet(t, base+"/sessions")
		if err := json.Unmarshal(body, &sessions); err != nil {
			t.Fatal(err)
		}
		retired = len(sessions.Sessions) == 0
		if !retired {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !retired {
		t.Fatalf("sessions not retired after close: %s", body)
	}
	_, body = httpGet(t, base+"/metrics")
	metrics = nil // Unmarshal merges into a non-empty map; start fresh
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatal(err)
	}
	if _, ok := metrics[name]; ok {
		t.Fatalf("per-session gauge %q survived detach", name)
	}

	if err := d.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Lifecycle events all landed, in order of first occurrence.
	for _, typ := range []string{"startup", "attach", "open", "detach", "drain", "drained"} {
		if len(eventsOf(t, dir, typ)) == 0 {
			t.Fatalf("no %q event in events.jsonl", typ)
		}
	}
	att := eventsOf(t, dir, "attach")[0]
	if att["tenant"] != "viz" || att["sid"] != float64(s.ID()) {
		t.Fatalf("attach event wrong: %v", att)
	}
	op := eventsOf(t, dir, "open")[0]
	if op["array"] != "H" || op["create"] != true {
		t.Fatalf("open event wrong: %v", op)
	}
	st := eventsOf(t, dir, "startup")[0]
	if st["addr"] != d.Addr() || st["http_addr"] != d.HTTPAddr() {
		t.Fatalf("startup event wrong: %v", st)
	}
	for k, v := range structFields(d.StartupInfo()) {
		if !reflect.DeepEqual(st[k], v) {
			t.Fatalf("StartupInfo().%s = %v, the startup event says %v", k, v, st[k])
		}
	}
}

// TestDaemonCountsEachOpOnce: with two I/O nodes, one session running n
// collectives reads n in tenant_ops_<t> and in its /sessions row alike —
// the master's summary counts an operation once, not once per server —
// and its bytes agree across tenant_bytes_<t>, the row and the payload.
func TestDaemonCountsEachOpOnce(t *testing.T) {
	const n = 5
	d := startTelemetryDaemon(t, t.TempDir(), Tuning{MaxInflight: 2})
	defer d.Drain() //nolint:errcheck
	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 1, Tenant: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	a := sessionArray(t, "once", 1)
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	err = s.Run(func(nd *Node) error {
		buf := make([]byte, nd.ChunkBytes(a))
		if err := nd.Bind(a, buf); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := nd.WriteArray(a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every server's summary adds bytes, some after the client's call
	// returned: wait for the last.
	want := int64(n * 16 * 8 * 4)
	var ops, bytes int64
	var row SessionStat
	for wait := 0; wait < 100; wait++ {
		_, body := httpGet(t, "http://"+d.HTTPAddr()+"/metrics")
		var metrics map[string]int64
		json.Unmarshal(body, &metrics) //nolint:errcheck // histograms do not decode; the counters do
		ops, bytes = metrics["tenant_ops_probe"], metrics["tenant_bytes_probe"]
		if rows := d.Sessions(); len(rows) == 1 {
			row = rows[0]
		}
		if bytes == want && row.Bytes == want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ops != n || row.Ops != n {
		t.Fatalf("tenant_ops_probe = %d, /sessions ops = %d after %d collectives on 2 I/O nodes; want %d and %d", ops, row.Ops, n, n, n)
	}
	if bytes != want || row.Bytes != want {
		t.Fatalf("tenant_bytes_probe = %d, /sessions bytes = %d; want %d", bytes, row.Bytes, want)
	}
}

// TestDaemonListsServiceSessions: a session attached to the Service
// alone — the way a migration attaches its internal session — is a row
// of Daemon.Sessions and counts in sessions_attached, and once it
// detaches nothing the telemetry plane kept for it survives.
func TestDaemonListsServiceSessions(t *testing.T) {
	d := startTelemetryDaemon(t, t.TempDir(), Tuning{})
	defer d.Drain() //nolint:errcheck
	info, err := d.Service().Attach(1, rebalanceTenant)
	if err != nil {
		t.Fatal(err)
	}
	rows := d.Sessions()
	if len(rows) != 1 || rows[0].SID != info.ID || rows[0].Tenant != rebalanceTenant || rows[0].Nodes != 1 {
		t.Fatalf("Daemon.Sessions() = %+v, want the one %s session %d", rows, rebalanceTenant, info.ID)
	}
	attached := func() int64 {
		_, body := httpGet(t, "http://"+d.HTTPAddr()+"/metrics")
		var metrics map[string]json.RawMessage
		if err := json.Unmarshal(body, &metrics); err != nil {
			t.Fatal(err)
		}
		var n int64
		if err := json.Unmarshal(metrics["sessions_attached"], &n); err != nil {
			t.Fatalf("sessions_attached: %v", err)
		}
		return n
	}
	if n := attached(); n != 1 {
		t.Fatalf("sessions_attached = %d, want 1", n)
	}

	// An operation of the session is tallied; its detach, which the
	// telemetry plane never hears of, leaves nothing behind once the
	// watchdog has scanned.
	d.tel.opDone(core.OpSummary{Seq: info.SeqBase, Op: "write", Bytes: 64, Tenant: rebalanceTenant})
	if rows := d.Sessions(); len(rows) != 1 || rows[0].Ops != 1 || rows[0].Bytes != 64 {
		t.Fatalf("session row after one op: %+v", rows)
	}
	d.Service().Detach(info.ID)
	if rows := d.Sessions(); len(rows) != 0 {
		t.Fatalf("Daemon.Sessions() after detach = %+v", rows)
	}
	if n := attached(); n != 0 {
		t.Fatalf("sessions_attached after detach = %d, want 0", n)
	}
	d.tel.scan()
	d.tel.mu.Lock()
	left := len(d.tel.counts)
	d.tel.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d session tallies outlived their sessions", left)
	}
}

// TestDaemonDumpEndpoint exercises operator-requested dumps: /dump
// writes a valid trace and logs a dump event; repeated requests are
// not rate-limited.
func TestDaemonDumpEndpoint(t *testing.T) {
	dir := t.TempDir()
	d := startTelemetryDaemon(t, dir, Tuning{})
	defer d.Drain() //nolint:errcheck
	base := "http://" + d.HTTPAddr()

	// Before any spans exist a dump is refused, not written empty.
	if code, _ := httpGet(t, base+"/dump"); code == http.StatusOK {
		t.Fatal("/dump succeeded with an empty flight recorder")
	}

	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 1, Tenant: "ops"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	a := sessionArray(t, "D", 1)
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	err = s.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		return n.WriteArray(a)
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		code, body := httpGet(t, base+"/dump")
		if code != http.StatusOK {
			t.Fatalf("/dump #%d: status %d: %s", i, code, body)
		}
		var rep struct {
			Path string `json:"path"`
		}
		if err := json.Unmarshal(body, &rep); err != nil || rep.Path == "" {
			t.Fatalf("/dump reply bad: %s (err %v)", body, err)
		}
		raw, err := os.ReadFile(rep.Path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ParseChromeTrace(raw); err != nil {
			t.Fatalf("dump #%d invalid: %v", i, err)
		}
	}
	if evs := eventsOf(t, dir, "dump"); len(evs) != 2 {
		t.Fatalf("dump events = %d, want 2", len(evs))
	}
}

// TestDaemonStageTelemetry writes 16 MiB through a session and requires
// the storage stage's accounting to show on the daemon's own surfaces:
// overlap_ns, stall_ns and stage_queue_depth on /metrics (registered on
// every daemon, and zero there for as long as only the legacy engine
// fed them), and the flight recorder's Chrome trace carrying the disk
// spans of the operation on each server's "storage" lane.
func TestDaemonStageTelemetry(t *testing.T) {
	d, err := StartDaemon(DaemonConfig{
		Dir: t.TempDir(), ClientSlots: 8, IONodes: 2, OpTimeout: 30 * time.Second,
		SubchunkBytes: 512 << 10, HTTPAddr: "127.0.0.1:0", Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain() //nolint:errcheck

	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 2, Tenant: "ckpt"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	a, err := NewArray("stage", []int{2048, 2048}, 4,
		NewLayout("mem", []int{2}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{2}), []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		fillPattern(buf, int64(n.Rank()))
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		return n.WriteArray(a)
	}); err != nil {
		t.Fatal(err)
	}

	var metrics map[string]json.RawMessage
	code, body := httpGet(t, "http://"+d.HTTPAddr()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	for _, name := range []string{"overlap_ns", "stall_ns"} {
		var v int64
		if err := json.Unmarshal(metrics[name], &v); err != nil || v <= 0 {
			t.Errorf("%s = %s after a 16 MiB write, want > 0 (err %v)", name, metrics[name], err)
		}
	}
	var depth obs.HistSnapshot
	if err := json.Unmarshal(metrics["stage_queue_depth"], &depth); err != nil || depth.Count == 0 {
		t.Errorf("stage_queue_depth = %s after a 16 MiB write, want observations (err %v)", metrics["stage_queue_depth"], err)
	}
	// The daemon's sub-chunk limit is the unit the write moved in.
	var pulls obs.HistSnapshot
	if err := json.Unmarshal(metrics["subchunk_latency_ns"], &pulls); err != nil || pulls.Count != 32 {
		t.Errorf("subchunk_latency_ns = %s: want 32 sub-chunks of 512 KiB in a 16 MiB write (err %v)", metrics["subchunk_latency_ns"], err)
	}

	path, err := d.DumpTrace("test")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ParseChromeTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	procs := map[int]string{}     // pid -> process name
	lanes := map[[2]int]string{}  // (pid, tid) -> thread name
	diskSpans := map[string]int{} // "process/thread" -> disk spans
	for _, e := range tr.TraceEvents {
		name, _ := e.Args["name"].(string)
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			procs[e.Pid] = name
		case e.Ph == "M" && e.Name == "thread_name":
			lanes[[2]int{e.Pid, e.Tid}] = name
		}
	}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Cat == "disk" {
			diskSpans[procs[e.Pid]+"/"+lanes[[2]int{e.Pid, e.Tid}]]++
		}
	}
	for _, track := range []string{"server0/storage", "server1/storage"} {
		if diskSpans[track] == 0 {
			t.Errorf("no disk span on %s in the daemon's trace (disk spans by track: %v)", track, diskSpans)
		}
	}
}
