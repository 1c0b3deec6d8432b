package panda

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// startElasticDaemon runs a daemon with spare pool capacity and the
// telemetry plane bound, so tests can join and drain I/O nodes.
func startElasticDaemon(t *testing.T, dir string, maxIons int, lease, heartbeat time.Duration) *Daemon {
	t.Helper()
	d, err := StartDaemon(DaemonConfig{
		Dir:            dir,
		ClientSlots:    8,
		IONodes:        2,
		MaxIONodes:     maxIons,
		LeaseTTL:       lease,
		HeartbeatEvery: heartbeat,
		OpTimeout:      20 * time.Second,
		HTTPAddr:       "127.0.0.1:0",
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("StartDaemon: %v", err)
	}
	return d
}

// waitMemberState polls the membership table until a slot reaches the
// wanted state; admission and lease expiry are asynchronous.
func waitMemberState(t *testing.T, d *Daemon, slot int, want core.MemberState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if got := d.members.State(slot); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("slot %d stuck in %s, want %s", slot, got, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// churnWrite (re)writes every named array with a seed-derived pattern
// through a fresh session.
func churnWrite(t *testing.T, addr string, names []string, nodes int, seed int64) {
	t.Helper()
	arrs := make([]*Array, len(names))
	for i, name := range names {
		arrs[i] = sessionArray(t, name, nodes)
	}
	writeArrays(t, addr, arrs, nodes, seed)
}

// writeArrays creates (or reopens) every array and writes it with the
// seed-derived pattern churnVerify checks, through a fresh session.
func writeArrays(t *testing.T, addr string, arrs []*Array, nodes int, seed int64) {
	t.Helper()
	s, err := Dial(SessionConfig{Addr: addr, Nodes: nodes, Tenant: "churn"})
	if err != nil {
		t.Fatalf("dial for write: %v", err)
	}
	defer s.Close() //nolint:errcheck
	for _, a := range arrs {
		if err := s.Create(a); err != nil {
			t.Fatalf("create %s: %v", a.name, err)
		}
	}
	err = s.Run(func(n *Node) error {
		for i, a := range arrs {
			buf := make([]byte, n.ChunkBytes(a))
			fillPattern(buf, seed+int64(i*64+n.Rank()))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
			if err := n.WriteArray(a); err != nil {
				return fmt.Errorf("write %s: %w", a.name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("churn write (seed %d): %v", seed, err)
	}
}

// churnVerify reads every named array back and checks it bit-exact
// against the seed-derived pattern churnWrite used.
func churnVerify(t *testing.T, addr string, names []string, nodes int, seed int64) {
	t.Helper()
	s, err := Dial(SessionConfig{Addr: addr, Nodes: nodes, Tenant: "churn"})
	if err != nil {
		t.Fatalf("dial for verify: %v", err)
	}
	defer s.Close() //nolint:errcheck
	arrs := make([]*Array, len(names))
	for i, name := range names {
		if arrs[i], err = s.Open(name); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
	}
	err = s.Run(func(n *Node) error {
		for i, a := range arrs {
			buf := make([]byte, n.ChunkBytes(a))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
			if err := n.ReadArray(a); err != nil {
				return fmt.Errorf("read %s: %w", names[i], err)
			}
			want := make([]byte, len(buf))
			fillPattern(want, seed+int64(i*64+n.Rank()))
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("%s chunk %d: read differs from written", names[i], n.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("churn verify (seed %d): %v", seed, err)
	}
}

// TestDaemonElasticJoinDrain is the membership acceptance walk: data
// written before a join is readable after it, the /servers endpoint
// tracks the pool, an HTTP-driven drain migrates the data off and the
// node exits clean, and the whole story — with no loss in it — lands in
// the event log.
func TestDaemonElasticJoinDrain(t *testing.T) {
	dir := t.TempDir()
	d := startElasticDaemon(t, dir, 4, 0, 0) // default 10s lease: no losses here
	names := []string{"E0", "E1"}
	churnWrite(t, d.Addr(), names, 2, 700)

	joinDir := filepath.Join(dir, "join-a")
	n, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Dir: joinDir, Name: "node-a", Logf: t.Logf})
	if err != nil {
		t.Fatalf("JoinIONode: %v", err)
	}
	if n.Slot() != 2 {
		t.Fatalf("joiner got slot %d, want 2 (lowest vacant)", n.Slot())
	}
	waitMemberState(t, d, 2, core.MemberActive, 5*time.Second)
	// Serialize behind the join-triggered rebalance so the readback sees
	// a settled placement.
	if err := d.Rebalance("test settle"); err != nil {
		t.Fatalf("rebalance after join: %v", err)
	}
	churnVerify(t, d.Addr(), names, 2, 700)

	// The membership table over HTTP.
	var pool struct {
		Epoch   uint32 `json:"epoch"`
		Active  int    `json:"active"`
		Servers []struct {
			Slot  int    `json:"slot"`
			State string `json:"state"`
			Local bool   `json:"local"`
			Addr  string `json:"addr"`
		} `json:"servers"`
	}
	code, body := httpGet(t, "http://"+d.HTTPAddr()+"/servers")
	if code != http.StatusOK {
		t.Fatalf("/servers: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &pool); err != nil {
		t.Fatalf("/servers payload: %v in %s", err, body)
	}
	if pool.Active != 3 || len(pool.Servers) != 4 || pool.Epoch < 2 {
		t.Fatalf("/servers after join = %+v", pool)
	}
	if s := pool.Servers[2]; s.State != "active" || s.Local || s.Addr != "node-a" {
		t.Fatalf("joined slot row = %+v", s)
	}

	// Drain over HTTP — the same path pandastat drain-server takes.
	resp, err := http.Post("http://"+d.HTTPAddr()+"/drain-server?slot=2", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /drain-server: %v", err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /drain-server: %d", resp.StatusCode)
	}
	if err := n.Wait(); err != nil {
		t.Fatalf("drained node exited dirty: %v", err)
	}
	if st := d.members.State(2); st != core.MemberAbsent {
		t.Fatalf("slot 2 after drain = %s, want absent", st)
	}
	churnVerify(t, d.Addr(), names, 2, 700)

	if err := d.Drain(); err != nil {
		t.Fatalf("daemon drain: %v", err)
	}
	for _, kind := range []string{"server_join", "server_drain", "server_left", "rebalance_start", "rebalance_done"} {
		if len(eventsOf(t, dir, kind)) == 0 {
			t.Errorf("no %q event in events.jsonl", kind)
		}
	}
	// The drain released the slot before the node exited, so the end of
	// its control connection is no loss.
	if lost := eventsOf(t, dir, "server_lost"); len(lost) != 0 {
		t.Errorf("a clean drain logged server_lost: %v", lost)
	}
	disks := make([]storage.Disk, 0, 3)
	for _, p := range []string{dir + "/ion0", dir + "/ion1", joinDir} {
		dsk, err := storage.NewOSDisk(p)
		if err != nil {
			t.Fatal(err)
		}
		disks = append(disks, dsk)
	}
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("post-drain scrub unhealthy: %+v", rep.Issues)
	}
}

// TestDaemonElasticChurn is the fixed-seed chaos battery the elastic
// pool must survive: joins, a kill racing a live migration, lease-based
// loss detection, drains, and a slot reused after loss — with every
// array bit-exact at each checkpoint, the final directory set clean
// under scrub, and zero leaked leases.
func TestDaemonElasticChurn(t *testing.T) {
	dir := t.TempDir()
	// Short leases so a kill is detected in ~1.5s instead of 10s.
	d := startElasticDaemon(t, dir, 5, 1200*time.Millisecond, 300*time.Millisecond)
	names := []string{"CH0", "CH1", "CH2"}
	churnWrite(t, d.Addr(), names, 2, 1000)
	churnVerify(t, d.Addr(), names, 2, 1000)

	// Round 1: a node joins; pre-join data must survive the rebalance.
	dir1 := filepath.Join(dir, "join1")
	n1, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Dir: dir1, Name: "j1", Logf: t.Logf})
	if err != nil {
		t.Fatalf("join 1: %v", err)
	}
	waitMemberState(t, d, n1.Slot(), core.MemberActive, 5*time.Second)
	if err := d.Rebalance("round 1 settle"); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	churnVerify(t, d.Addr(), names, 2, 1000)

	// Round 2: a second node joins and is killed while a rebalance is
	// running. The migration must replan around the corpse, the lease
	// must declare it lost, and a full rewrite afterwards must land
	// cleanly on the survivors.
	dir2 := filepath.Join(dir, "join2")
	n2, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Dir: dir2, Name: "j2", Logf: t.Logf})
	if err != nil {
		t.Fatalf("join 2: %v", err)
	}
	lostSlot := n2.Slot()
	waitMemberState(t, d, lostSlot, core.MemberActive, 5*time.Second)
	chaos := make(chan error, 1)
	go func() { chaos <- d.Rebalance("round 2 chaos") }()
	time.Sleep(25 * time.Millisecond)
	n2.Kill()
	if err := <-chaos; err != nil {
		t.Logf("rebalance raced the kill (tolerated): %v", err)
	}
	waitMemberState(t, d, lostSlot, core.MemberLost, 15*time.Second)
	churnWrite(t, d.Addr(), names, 2, 2000)
	churnVerify(t, d.Addr(), names, 2, 2000)

	// Round 3: drain the first joiner; its chunks migrate off and it
	// exits clean.
	if err := d.DrainServer(n1.Slot()); err != nil {
		t.Fatalf("drain slot %d: %v", n1.Slot(), err)
	}
	if err := n1.Wait(); err != nil {
		t.Fatalf("drained node 1 exited dirty: %v", err)
	}
	churnVerify(t, d.Addr(), names, 2, 2000)

	// Round 4: a fresh node reuses the drained slot (lowest vacancy
	// first — the lost slot stays behind it in line).
	dir3 := filepath.Join(dir, "join3")
	n3, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Dir: dir3, Name: "j3", Logf: t.Logf})
	if err != nil {
		t.Fatalf("join 3: %v", err)
	}
	if n3.Slot() != n1.Slot() {
		t.Fatalf("rejoin got slot %d, want the drained slot %d", n3.Slot(), n1.Slot())
	}
	waitMemberState(t, d, n3.Slot(), core.MemberActive, 5*time.Second)
	if err := d.Rebalance("round 4 settle"); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	churnWrite(t, d.Addr(), names, 2, 3000)
	churnVerify(t, d.Addr(), names, 2, 3000)

	// Round 5: drain it back out; the pool returns to its resident two.
	if err := d.DrainServer(n3.Slot()); err != nil {
		t.Fatalf("drain slot %d: %v", n3.Slot(), err)
	}
	if err := n3.Wait(); err != nil {
		t.Fatalf("drained node 3 exited dirty: %v", err)
	}
	churnVerify(t, d.Addr(), names, 2, 3000)

	if leases := d.members.Leases(); leases != 0 {
		t.Fatalf("leaked leases after churn: %d", leases)
	}
	if active := d.members.ActiveCount(); active != 2 {
		t.Fatalf("active members after churn = %d, want the 2 residents", active)
	}
	if err := d.Drain(); err != nil {
		t.Fatalf("daemon drain: %v", err)
	}

	for _, kind := range []string{"server_join", "server_drain", "server_left", "server_lost", "rebalance_start", "rebalance_done"} {
		if len(eventsOf(t, dir, kind)) == 0 {
			t.Errorf("no %q event in events.jsonl", kind)
		}
	}
	// fsck-grade sweep over every surviving directory, including the
	// killed node's: a kill mid-commit may leave warn-level debris there
	// but never a broken committed promise.
	disks := make([]storage.Disk, 0, 5)
	for _, p := range []string{dir + "/ion0", dir + "/ion1", dir1, dir2, dir3} {
		dsk, err := storage.NewOSDisk(p)
		if err != nil {
			t.Fatal(err)
		}
		disks = append(disks, dsk)
	}
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("post-churn scrub unhealthy: %+v", rep.Issues)
	}
}

// TestDaemonJoinPoolFull: a pool with no vacancy refuses a joiner with
// the typed busy error.
func TestDaemonJoinPoolFull(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{}) // MaxIONodes = IONodes
	defer d.Drain()                                //nolint:errcheck
	if _, err := JoinIONode(IONodeConfig{Addr: d.Addr()}); !errors.Is(err, ErrBusy) {
		t.Fatalf("full-pool join error = %v, want ErrBusy", err)
	}
}

// TestDialRetryUnavailable: a dial against a dead address burns its
// budget retrying, then fails with the typed sentinel.
func TestDialRetryUnavailable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck

	start := time.Now()
	_, err = Dial(SessionConfig{Addr: addr, Nodes: 1, DialBudget: 300 * time.Millisecond})
	if !errors.Is(err, ErrDaemonUnavailable) {
		t.Fatalf("dead-address dial error = %v, want ErrDaemonUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budgeted dial ran %v, want well under the 5s default", elapsed)
	}
}

// TestDialRetryEventualListener: the dial keeps retrying with backoff
// and succeeds once something starts listening.
func TestDialRetryEventualListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck

	lnCh := make(chan net.Listener, 1)
	go func() {
		time.Sleep(250 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("relisten on %s: %v", addr, err)
			lnCh <- nil
			return
		}
		lnCh <- ln2
	}()
	conn, err := dialRetry(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dialRetry never reached the late listener: %v", err)
	}
	conn.Close() //nolint:errcheck
	if ln2 := <-lnCh; ln2 != nil {
		ln2.Close() //nolint:errcheck
	}
}

// TestDaemonSurvivesIONodeKilledMidWrite severs a joined I/O node's
// connection in the middle of a run of collective writes that move data
// through it. The node's executors keep sending into the closed socket
// for a moment; that must cost operations, never the process: every
// rank sees its writes succeed (the master failed over) or fail typed,
// and the daemon serves the next session bit-exact.
func TestDaemonSurvivesIONodeKilledMidWrite(t *testing.T) {
	const opTimeout = 2 * time.Second
	d, err := StartDaemon(DaemonConfig{
		ClientSlots:    8,
		IONodes:        2,
		MaxIONodes:     4,
		LeaseTTL:       1200 * time.Millisecond,
		HeartbeatEvery: 300 * time.Millisecond,
		OpTimeout:      opTimeout,
		// A deep pull window keeps replies queued at the victim, so its
		// executor is still issuing pulls when the socket closes under it.
		Tuning: Tuning{Pipeline: 8},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("StartDaemon: %v", err)
	}
	defer d.Drain() //nolint:errcheck

	const nodes, writes, killAt = 2, 6, 2
	for round, into := range []time.Duration{3 * time.Millisecond, 12 * time.Millisecond} {
		n, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Name: fmt.Sprintf("victim%d", round), Logf: t.Logf})
		if err != nil {
			t.Fatalf("round %d join: %v", round, err)
		}
		waitMemberState(t, d, n.Slot(), core.MemberActive, 5*time.Second)

		// 8 MiB in 8 disk chunks: round-robin puts several on the victim,
		// and one write lasts long enough to be interrupted.
		a, err := NewArray(fmt.Sprintf("K%d", round), []int{nodes * 4096, 256}, 4,
			NewLayout("mem", []int{nodes}), []Distribution{BLOCK, NONE},
			NewLayout("disk", []int{8}), []Distribution{BLOCK, NONE})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: nodes, Tenant: "kill"})
		if err != nil {
			t.Fatalf("round %d dial: %v", round, err)
		}
		if err := s.Create(a); err != nil {
			t.Fatalf("round %d create: %v", round, err)
		}
		errs := make([]error, nodes)
		slowest := make([]time.Duration, nodes)
		s.Run(func(nd *Node) error { //nolint:errcheck // judged per rank below
			buf := make([]byte, nd.ChunkBytes(a))
			if err := nd.Bind(a, buf); err != nil {
				return err
			}
			for i := 0; i < writes && errs[nd.Rank()] == nil; i++ {
				if i == killAt && nd.Rank() == 0 {
					time.AfterFunc(into, n.Kill) // lands inside this write
				}
				t0 := time.Now()
				errs[nd.Rank()] = nd.WriteArray(a)
				slowest[nd.Rank()] = max(slowest[nd.Rank()], time.Since(t0))
			}
			return nil
		})
		for rank, werr := range errs {
			// Wherever the kill landed, the master stops waiting for the
			// corpse once its socket closes — not when the budget runs out.
			if slowest[rank] >= opTimeout {
				t.Errorf("round %d rank %d: one write took %v, a whole OpTimeout (%v) or more", round, rank, slowest[rank], opTimeout)
			}
			if werr != nil && !core.IsTyped(werr) {
				t.Errorf("round %d rank %d: untyped error %v", round, rank, werr)
			}
		}
		s.Close() //nolint:errcheck
		waitMemberState(t, d, n.Slot(), core.MemberLost, 15*time.Second)

		names := []string{fmt.Sprintf("after%d", round)}
		churnWrite(t, d.Addr(), names, nodes, int64(round))
		churnVerify(t, d.Addr(), names, nodes, int64(round))
	}
}

// TestDaemonRefusesHeartbeatPastLease: a joiner told to beat no faster
// than its lease lapses would be declared lost between beats, so a
// daemon configured that way is refused at start.
func TestDaemonRefusesHeartbeatPastLease(t *testing.T) {
	for _, c := range []struct{ lease, beat time.Duration }{
		{time.Second, time.Second},
		{time.Second, 2 * time.Second},
		{0, core.DefaultLeaseTTL}, // against the default lease
	} {
		d, err := StartDaemon(DaemonConfig{LeaseTTL: c.lease, HeartbeatEvery: c.beat, Logf: t.Logf})
		if err == nil {
			d.Drain() //nolint:errcheck
			t.Errorf("StartDaemon with LeaseTTL %v, HeartbeatEvery %v succeeded", c.lease, c.beat)
		}
	}
}

// TestJoinedIONodeLosesItsHub: a joined I/O node whose daemon's hub
// closes under it exits at once with ErrPeerLost, with or without
// operation deadlines — every wait on its serve path reports the lost
// link as a typed error, so nothing panics and nothing needs recovering.
func TestJoinedIONodeLosesItsHub(t *testing.T) {
	for _, opTimeout := range []time.Duration{0, 20 * time.Second} {
		t.Run(fmt.Sprintf("optimeout=%v", opTimeout), func(t *testing.T) {
			d, err := StartDaemon(DaemonConfig{ClientSlots: 4, IONodes: 2, MaxIONodes: 3, OpTimeout: opTimeout, Logf: t.Logf})
			if err != nil {
				t.Fatalf("StartDaemon: %v", err)
			}
			defer d.Drain() //nolint:errcheck // its I/O nodes lost their hub: they fail, and say so
			n, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Logf: t.Logf})
			if err != nil {
				t.Fatalf("JoinIONode: %v", err)
			}
			waitMemberState(t, d, n.Slot(), core.MemberActive, 5*time.Second)

			t0 := time.Now()
			d.hub.Close()
			exited := make(chan error, 1)
			go func() { exited <- n.Wait() }()
			select {
			case err = <-exited:
			case <-time.After(10 * time.Second):
				t.Fatal("joined I/O node still serving 10s after its hub closed")
			}
			if took := time.Since(t0); took > 500*time.Millisecond {
				t.Errorf("joined I/O node took %v to exit after its hub closed, want < 500ms", took)
			}
			if !errors.Is(err, ErrPeerLost) {
				t.Errorf("joined I/O node exited with %v, want ErrPeerLost", err)
			}
		})
	}
}

// wideArray declares a nodes-chunk array stored as six disk chunks:
// placement puts disk chunk i on slot i mod capacity, so a joined slot
// 2 holds some of it.
func wideArray(t *testing.T, name string, nodes int) *Array {
	t.Helper()
	a, err := NewArray(name, []int{nodes * 16, 8}, 4,
		NewLayout("mem", []int{nodes}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{6}), []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return a
}

// TestDaemonJoinerLostWhenItsConnectionEnds: under the default 10s
// lease, a killed joiner is declared lost as soon as its control
// connection ends, not when the lease lapses — and a write issued once
// the slot reads Lost is planned around it outright, with no
// reassignment round.
func TestDaemonJoinerLostWhenItsConnectionEnds(t *testing.T) {
	d := startElasticDaemon(t, t.TempDir(), 4, 0, 0)
	defer d.Drain() //nolint:errcheck
	n, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Name: "victim", Logf: t.Logf})
	if err != nil {
		t.Fatalf("JoinIONode: %v", err)
	}
	waitMemberState(t, d, n.Slot(), core.MemberActive, 5*time.Second)

	t0 := time.Now()
	n.Kill()
	waitMemberState(t, d, n.Slot(), core.MemberLost, time.Second)
	t.Logf("slot %d lost %v after the kill", n.Slot(), time.Since(t0))
	n.Wait() //nolint:errcheck // its serve loop ends with the lost link

	reassigns := d.reg.Counter("reassigns")
	before := reassigns.Value()
	writeArrays(t, d.Addr(), []*Array{wideArray(t, "around", 2)}, 2, 5)
	if got := reassigns.Value() - before; got != 0 {
		t.Errorf("a write after the slot read Lost paid %d reassignment round(s), want 0", got)
	}
	churnVerify(t, d.Addr(), []string{"around"}, 2, 5)
}

// TestDaemonSilentJoinerLostByLease: a joiner that says ready and then
// goes silent with both its connections open — a stopped process — is
// still declared lost, by its lease, and what its connection says after
// that is refused.
func TestDaemonSilentJoinerLostByLease(t *testing.T) {
	const lease = 1200 * time.Millisecond
	d := startElasticDaemon(t, t.TempDir(), 4, lease, 300*time.Millisecond)
	defer d.Drain() //nolint:errcheck

	ctl, rep, err := dialControl(d.Addr(), 0, ctlRequest{Cmd: "server-join", Addr: "silent"})
	if err != nil {
		t.Fatalf("server-join: %v", err)
	}
	defer ctl.conn.Close()
	ccfg := rep.coreConfig()
	comm, err := mpi.DialComm(d.Addr(), ccfg.ServerRank(rep.Slot), ccfg.WorldSize())
	if err != nil {
		t.Fatalf("DialComm: %v", err)
	}
	defer mpi.CloseComm(comm) //nolint:errcheck
	if _, err := ctl.call(ctlRequest{Cmd: "server-ready"}); err != nil {
		t.Fatalf("server-ready: %v", err)
	}
	t0 := time.Now()
	if st := d.members.State(rep.Slot); st != core.MemberActive {
		t.Fatalf("slot %d is %s after server-ready, want active", rep.Slot, st)
	}
	waitMemberState(t, d, rep.Slot, core.MemberLost, 5*lease)
	if took := time.Since(t0); took < lease {
		t.Errorf("slot %d lost %v after ready, before a %v lease could lapse", rep.Slot, took, lease)
	}
	if _, err := ctl.call(ctlRequest{Cmd: "heartbeat"}); err == nil {
		t.Error("a heartbeat for a lost slot was accepted")
	}
	if st := d.members.State(rep.Slot); st != core.MemberLost {
		t.Errorf("slot %d is %s after a refused heartbeat, want lost", rep.Slot, st)
	}
}

// TestDaemonLeaseLossFreesTheRank: a joiner lost by its lease while its
// sockets stay open (a stopped process) is cut off — its control
// connection and its hub rank — so the next joiner for the slot
// registers the rank at once instead of waiting out the hub's duplicate
// check and being refused.
func TestDaemonLeaseLossFreesTheRank(t *testing.T) {
	const lease = 1200 * time.Millisecond
	d := startElasticDaemon(t, t.TempDir(), 4, lease, 300*time.Millisecond)
	defer d.Drain() //nolint:errcheck

	ctl, rep, err := dialControl(d.Addr(), 0, ctlRequest{Cmd: "server-join", Addr: "stopped"})
	if err != nil {
		t.Fatalf("server-join: %v", err)
	}
	defer ctl.conn.Close()
	ccfg := rep.coreConfig()
	comm, err := mpi.DialComm(d.Addr(), ccfg.ServerRank(rep.Slot), ccfg.WorldSize())
	if err != nil {
		t.Fatalf("DialComm: %v", err)
	}
	defer mpi.CloseComm(comm) //nolint:errcheck
	if _, err := ctl.call(ctlRequest{Cmd: "server-ready"}); err != nil {
		t.Fatalf("server-ready: %v", err)
	}
	waitMemberState(t, d, rep.Slot, core.MemberLost, 5*lease)

	lost := time.Now()
	n, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Name: "next", Logf: t.Logf})
	took := time.Since(lost)
	if err != nil {
		t.Fatalf("JoinIONode %v after the loss: %v", took, err)
	}
	defer n.Close() //nolint:errcheck
	if n.Slot() != rep.Slot {
		t.Errorf("the next joiner took slot %d, want the lost slot %d", n.Slot(), rep.Slot)
	}
	if took > time.Second {
		t.Errorf("the next joiner took %v to join the lost slot, want within 1s", took)
	}
	if _, err := ctl.call(ctlRequest{Cmd: "heartbeat"}); err == nil {
		t.Error("the lost member's control connection still answers")
	}
}

// TestDaemonReclaimedJoinerFreesTheRank: a joiner that registered its
// hub rank but never said server-ready has its reservation reclaimed by
// the lease, and the reclaim cuts it off as a loss does — its control
// connection and its hub rank — so the slot's next joiner registers the
// rank at once.
func TestDaemonReclaimedJoinerFreesTheRank(t *testing.T) {
	const lease = 1200 * time.Millisecond
	d := startElasticDaemon(t, t.TempDir(), 4, lease, 300*time.Millisecond)
	defer d.Drain() //nolint:errcheck

	ctl, rep, err := dialControl(d.Addr(), 0, ctlRequest{Cmd: "server-join", Addr: "unready"})
	if err != nil {
		t.Fatalf("server-join: %v", err)
	}
	defer ctl.conn.Close()
	ccfg := rep.coreConfig()
	comm, err := mpi.DialComm(d.Addr(), ccfg.ServerRank(rep.Slot), ccfg.WorldSize())
	if err != nil {
		t.Fatalf("DialComm: %v", err)
	}
	defer mpi.CloseComm(comm) //nolint:errcheck
	waitMemberState(t, d, rep.Slot, core.MemberAbsent, 5*lease)

	reclaimed := time.Now()
	n, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Name: "next", Logf: t.Logf})
	took := time.Since(reclaimed)
	if err != nil {
		t.Fatalf("JoinIONode %v after the reclaim: %v", took, err)
	}
	defer n.Close() //nolint:errcheck
	if n.Slot() != rep.Slot {
		t.Errorf("the next joiner took slot %d, want the reclaimed slot %d", n.Slot(), rep.Slot)
	}
	if took > time.Second {
		t.Errorf("the next joiner took %v to join the reclaimed slot, want within 1s", took)
	}
	if _, err := ctl.call(ctlRequest{Cmd: "server-ready"}); err == nil {
		t.Error("the reclaimed joiner's control connection still answers")
	}
}

// TestDaemonMemberCommandsNeedTheirReservation: server-ready and
// heartbeat act only on the slot the connection's own server-join
// reserved. Sent on a session's connection, or on one that reserved
// nothing, they are refused and no slot changes — not even the one
// another connection holds in Joining.
func TestDaemonMemberCommandsNeedTheirReservation(t *testing.T) {
	d := startElasticDaemon(t, t.TempDir(), 4, 0, 0)
	defer d.Drain() //nolint:errcheck
	joiner, rep, err := dialControl(d.Addr(), 0, ctlRequest{Cmd: "server-join", Addr: "pending"})
	if err != nil {
		t.Fatalf("server-join: %v", err)
	}
	defer joiner.conn.Close()
	s, err := Dial(SessionConfig{Addr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	bare, _, err := dialControl(d.Addr(), 0, ctlRequest{Cmd: "info"})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.conn.Close()

	before, epoch := d.Servers(), d.members.Epoch()
	for _, cmd := range []string{"server-ready", "heartbeat", "server-ready"} {
		if _, err := s.rpc(ctlRequest{Cmd: cmd}); err == nil {
			t.Errorf("%s on a session's connection was accepted", cmd)
		}
		if _, err := bare.call(ctlRequest{Cmd: cmd}); err == nil {
			t.Errorf("%s on a connection that reserved nothing was accepted", cmd)
		}
	}
	if _, err := s.rpc(ctlRequest{Cmd: "server-join", Addr: "session"}); err == nil {
		t.Error("a session's connection reserved a server slot")
	}
	after := d.Servers()
	for i := range before {
		b, a := before[i], after[i]
		if a.State != b.State || a.Epoch != b.Epoch || a.LeaseMs > b.LeaseMs {
			t.Errorf("slot %d changed: %+v, was %+v", i, a, b)
		}
	}
	if got := d.members.Epoch(); got != epoch {
		t.Errorf("membership epoch %d → %d under refused commands", epoch, got)
	}
	if st := after[rep.Slot].State; st != core.MemberJoining {
		t.Errorf("the reserved slot %d is %s, want joining", rep.Slot, st)
	}
}

// listFailDisk is a disk whose directory cannot be listed.
type listFailDisk struct{ storage.Disk }

func (listFailDisk) List() ([]string, error) { return nil, errors.New("injected list failure") }

// TestDaemonDrainKeepsSlotWhenWorkUnknown: a drain whose rebalance
// cannot list the master server's disk does not know what to migrate,
// so it fails and leaves the slot Draining (and its data readable)
// instead of retiring a node it never migrated; once the disk lists
// again, the drain is retried to completion.
func TestDaemonDrainKeepsSlotWhenWorkUnknown(t *testing.T) {
	dir := t.TempDir()
	d := startElasticDaemon(t, dir, 3, 0, 0)
	defer d.Drain() //nolint:errcheck
	n, err := JoinIONode(IONodeConfig{Addr: d.Addr(), Dir: filepath.Join(dir, "join"), Logf: t.Logf})
	if err != nil {
		t.Fatalf("JoinIONode: %v", err)
	}
	waitMemberState(t, d, n.Slot(), core.MemberActive, 5*time.Second)
	names := []string{"held0", "held1"}
	writeArrays(t, d.Addr(), []*Array{wideArray(t, names[0], 2), wideArray(t, names[1], 2)}, 2, 13)

	swap := func(disk storage.Disk) { // under rebalMu: the rebalance that reads it holds it
		d.rebalMu.Lock()
		d.disks[0] = disk
		d.rebalMu.Unlock()
	}
	master := d.disks[0]
	swap(listFailDisk{master})
	if err := d.DrainServer(n.Slot()); err == nil {
		t.Fatal("DrainServer succeeded with the master server's disk unlistable")
	}
	if st := d.members.State(n.Slot()); st != core.MemberDraining {
		t.Fatalf("slot %d is %s after a failed drain, want draining", n.Slot(), st)
	}
	churnVerify(t, d.Addr(), names, 2, 13)

	swap(master)
	if err := d.DrainServer(n.Slot()); err != nil {
		t.Fatalf("retried DrainServer: %v", err)
	}
	if err := n.Wait(); err != nil {
		t.Fatalf("drained node exited dirty: %v", err)
	}
	churnVerify(t, d.Addr(), names, 2, 13)
}
