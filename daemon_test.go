package panda

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"panda/internal/core"
	"panda/internal/mpi"
	"panda/internal/storage"
)

// startTestDaemon runs a daemon over real files in a temp dir.
func startTestDaemon(t *testing.T, dir string, tuning Tuning) *Daemon {
	t.Helper()
	d, err := StartDaemon(DaemonConfig{
		Dir:         dir,
		ClientSlots: 8,
		IONodes:     2,
		OpTimeout:   30 * time.Second,
		Tuning:      tuning,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("StartDaemon: %v", err)
	}
	return d
}

// sessionArray declares a nodes-chunk array named name.
func sessionArray(t *testing.T, name string, nodes int) *Array {
	t.Helper()
	a, err := NewArray(name, []int{nodes * 16, 8}, 4,
		NewLayout("mem", []int{nodes}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{2}), []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return a
}

func fillPattern(buf []byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Read(buf)
}

// TestDaemonCrossSessionReadback is the PR's acceptance scenario:
// client A creates and writes an array and disconnects; client B
// connects later, opens it by name alone, and reads it back bit-exact;
// a drain then exits clean and fsck finds nothing wrong.
func TestDaemonCrossSessionReadback(t *testing.T) {
	dir := t.TempDir()
	d := startTestDaemon(t, dir, Tuning{})

	const nodes = 2
	var wantMu sync.Mutex // session members run concurrently
	want := make(map[int][]byte)

	// Client A: create, write, disconnect.
	sa, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: nodes, Tenant: "alice"})
	if err != nil {
		t.Fatalf("Dial A: %v", err)
	}
	ax := sessionArray(t, "X", nodes)
	if err := sa.Create(ax); err != nil {
		t.Fatalf("Create X: %v", err)
	}
	err = sa.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(ax))
		fillPattern(buf, int64(n.Rank())+100)
		wantMu.Lock()
		want[n.Rank()] = append([]byte(nil), buf...)
		wantMu.Unlock()
		if err := n.Bind(ax, buf); err != nil {
			return err
		}
		return n.WriteArray(ax)
	})
	if err != nil {
		t.Fatalf("session A write: %v", err)
	}
	if err := sa.Close(); err != nil {
		t.Fatalf("close A: %v", err)
	}

	// Client B: open by name (no schema re-declaration), read, verify.
	sb, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: nodes, Tenant: "bob"})
	if err != nil {
		t.Fatalf("Dial B: %v", err)
	}
	bx, err := sb.Open("X")
	if err != nil {
		t.Fatalf("Open X: %v", err)
	}
	var mu sync.Mutex
	got := make(map[int][]byte)
	err = sb.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(bx))
		if err := n.Bind(bx, buf); err != nil {
			return err
		}
		if err := n.ReadArray(bx); err != nil {
			return err
		}
		mu.Lock()
		got[n.Rank()] = append([]byte(nil), buf...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("session B read: %v", err)
	}
	for r, w := range want {
		if !bytes.Equal(got[r], w) {
			t.Fatalf("chunk %d: read differs from written", r)
		}
	}
	if info, err := sb.Info(); err != nil || info.Arrays != 1 {
		t.Fatalf("info: %+v, %v", info, err)
	}
	if err := sb.Close(); err != nil {
		t.Fatalf("close B: %v", err)
	}

	if err := d.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// fsck-grade check on the daemon's data directories.
	disks := make([]storage.Disk, 2)
	for i := range disks {
		dsk, err := storage.NewOSDisk(fmt.Sprintf("%s/ion%d", dir, i))
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = dsk
	}
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("post-drain scrub unhealthy: %+v", rep.Issues)
	}
}

// TestDaemonSchemaMismatch: re-creating a catalogued array under a
// different decomposition is refused with the typed sentinel.
func TestDaemonSchemaMismatch(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{})
	defer d.Drain() //nolint:errcheck

	s1, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	a1 := sessionArray(t, "Y", 2)
	if err := s1.Create(a1); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Same name and size, different disk decomposition.
	a2, err := NewArray("Y", []int{32, 8}, 4,
		NewLayout("mem", []int{2}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{2}), []Distribution{NONE, BLOCK})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Create(a2); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("want ErrSchemaMismatch, got %v", err)
	}
	// Idempotent create under the identical schema is fine.
	if err := s1.Create(a1); err != nil {
		t.Fatalf("re-create identical: %v", err)
	}
	if _, err := s1.Open("Z"); !errors.Is(err, ErrUnknownArray) {
		t.Fatalf("want ErrUnknownArray, got %v", err)
	}
	s1.Close() //nolint:errcheck
}

// TestDaemonReloadUnderLoad: a live tuning reload (weights, pipeline)
// lands with zero failed in-flight operations, and the new weights are
// observable through Info alongside per-tenant metrics.
func TestDaemonReloadUnderLoad(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{MaxInflight: 2})
	defer d.Drain() //nolint:errcheck

	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 1, Tenant: "load"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	a := sessionArray(t, "W", 1)
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}

	// Writer loop: timesteps while the tuning changes under it.
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
				fillPattern(buf, int64(i))
				if err := n.Timestep(g); err != nil {
					return fmt.Errorf("timestep %d: %w", i, err)
				}
			}
			return nil
		})
	}()
	time.Sleep(50 * time.Millisecond)
	if err := d.Reload(Tuning{MaxInflight: 4, QueueDepth: 32, Quantum: 2 << 20, Weights: map[string]int{"load": 7}, Pipeline: 2}); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("writes failed across reload: %v", err)
	}

	info, err := s.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Weights["load"] != 7 || info.MaxInflight != 4 || info.QueueDepth != 32 || info.Pipeline != 2 {
		t.Fatalf("reload not observable: %+v", info)
	}
	if q := d.Service().Config().Sched.Quantum; q != 2<<20 {
		t.Fatalf("reloaded quantum = %d, want %d", q, 2<<20)
	}
	// Per-tenant attribution survived the reload.
	if info.Metrics["tenant_ops_load"] == nil {
		t.Fatalf("no tenant_ops_load counter in metrics: %v", info.Metrics)
	}
	s.Close() //nolint:errcheck
}

// TestDaemonChaosAttachDetach: sessions attach, write, and detach
// concurrently while a long-running tenant's collectives proceed

// TestDaemonReloadRefusesInvalidTuning: a reload is held to the rule
// StartDaemon applies. Each tuning Config.Validate refuses — a zero
// weight, a negative queue depth, a negative pipeline — makes Reload
// fail, leaves the service's configuration valid, and leaves the tuning
// a session reports as it was.
func TestDaemonReloadRefusesInvalidTuning(t *testing.T) {
	d := startTestDaemon(t, "", Tuning{QueueDepth: 8, Weights: map[string]int{"a": 2}, Pipeline: 3})
	defer d.Drain() //nolint:errcheck
	s, err := Dial(SessionConfig{Addr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	before, err := s.Info()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Tuning{
		{Weights: map[string]int{"a": 0}},
		{QueueDepth: -1},
		{Pipeline: -3},
	} {
		if err := d.Reload(bad); err == nil {
			t.Errorf("Reload(%+v) accepted tuning StartDaemon refuses", bad)
		}
		if err := d.svc.Config().Validate(); err != nil {
			t.Errorf("after Reload(%+v) the service's config is invalid: %v", bad, err)
		}
		after, err := s.Info()
		if err != nil {
			t.Fatal(err)
		}
		if after.MaxInflight != before.MaxInflight || after.QueueDepth != before.QueueDepth ||
			after.Pipeline != before.Pipeline || !reflect.DeepEqual(after.Weights, before.Weights) {
			t.Errorf("Reload(%+v) changed the reported tuning to inflight %d, depth %d, pipeline %d, weights %v",
				bad, after.MaxInflight, after.QueueDepth, after.Pipeline, after.Weights)
		}
	}
}

// unharmed.
func TestDaemonChaosAttachDetach(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{MaxInflight: 3})

	// The resident tenant: writes timesteps throughout.
	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 2, Tenant: "resident"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	a := sessionArray(t, "R", 2)
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	resident := make(chan error, 1)
	go func() {
		resident <- s.Run(func(n *Node) error {
			buf := make([]byte, n.ChunkBytes(a))
			if err := n.Bind(a, buf); err != nil {
				return err
			}
			g := NewGroup("r")
			g.Include(a)
			for i := 0; i < 20; i++ {
				fillPattern(buf, int64(i))
				if err := n.Timestep(g); err != nil {
					return fmt.Errorf("resident timestep %d: %w", i, err)
				}
			}
			return nil
		})
	}()

	// The churn: short-lived single-node sessions racing one another.
	var wg sync.WaitGroup
	churnErr := make(chan error, 12)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				cs, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 1, Tenant: fmt.Sprintf("churn%d", w)})
				if err != nil {
					churnErr <- err
					return
				}
				ca := sessionArray(t, fmt.Sprintf("C%d", w), 1)
				if err := cs.Create(ca); err != nil {
					churnErr <- err
					cs.Close() //nolint:errcheck
					return
				}
				err = cs.Run(func(n *Node) error {
					buf := make([]byte, n.ChunkBytes(ca))
					fillPattern(buf, int64(w*100+k))
					if err := n.Bind(ca, buf); err != nil {
						return err
					}
					return n.WriteArray(ca)
				})
				cs.Close() //nolint:errcheck
				if err != nil {
					churnErr <- fmt.Errorf("churn %d.%d: %w", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(churnErr)
	for err := range churnErr {
		t.Errorf("churn: %v", err)
	}
	if err := <-resident; err != nil {
		t.Fatalf("resident tenant disturbed: %v", err)
	}
	s.Close() //nolint:errcheck
	if err := d.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDaemonDrainRefusesAttach: once drained, the daemon is gone — new
// dials fail and the listener is closed.
func TestDaemonDrainRefusesAttach(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{})
	addr := d.Addr()
	if err := d.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := Dial(SessionConfig{Addr: addr, Nodes: 1, DialBudget: -1}); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestDaemonDrainSeversSilentConn: a connection that never says hello
// (a port probe, a TCP health check, a client killed between connect and
// hello) cannot hang a drain.
func TestDaemonDrainSeversSilentConn(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{})
	silent, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The hub accepts in order: once a later session has been served, the
	// silent connection has been accepted and is waiting on its hello.
	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	drained := make(chan error, 1)
	go func() { drained <- d.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain still running 2 s in: a silent connection holds the hub")
	}
}

// TestDaemonCapsControlRequests: the session-control reader holds at
// most maxCtlRequest bytes of one request. A connection that says hello
// and then streams an unterminated value twice that long is closed, not
// buffered, and a well-behaved client still attaches afterwards.
func TestDaemonCapsControlRequests(t *testing.T) {
	d := startTestDaemon(t, t.TempDir(), Tuning{})
	defer d.Drain() //nolint:errcheck
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := mpi.SessionHello(conn); err != nil {
		t.Fatal(err)
	}
	flood := append([]byte(`{"cmd":"open","name":"`), bytes.Repeat([]byte("x"), 2*maxCtlRequest)...)
	go conn.Write(flood) //nolint:errcheck // the daemon hangs up mid-stream
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("the daemon replied to an oversized request")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the daemon kept reading a request twice the cap instead of closing the connection")
	}

	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 1})
	if err != nil {
		t.Fatalf("Dial after the oversized request: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSurvivesDaemonDeath: an application attached with Dial
// outlives its daemon. The daemon's hub goes away while the session is
// idle between Runs; the session's frame routers and the daemon's own
// servers find their links down without taking the process with them,
// and the next Run fails typed, with ErrPeerLost, within two seconds —
// one OpTimeout when there is one; without one ("wait forever") the dead
// link itself ends every wait.
func TestSessionSurvivesDaemonDeath(t *testing.T) {
	const patience = 2 * time.Second
	for _, opTimeout := range []time.Duration{patience, 0} {
		t.Run(fmt.Sprintf("optimeout=%v", opTimeout), func(t *testing.T) {
			d, err := StartDaemon(DaemonConfig{Dir: t.TempDir(), ClientSlots: 4, IONodes: 2, OpTimeout: opTimeout, Logf: t.Logf})
			if err != nil {
				t.Fatalf("StartDaemon: %v", err)
			}
			s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: 2})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			a := sessionArray(t, "orphan", 2)
			if err := s.Create(a); err != nil {
				t.Fatalf("Create: %v", err)
			}
			if err := s.Run(func(n *Node) error {
				buf := make([]byte, n.ChunkBytes(a))
				fillPattern(buf, int64(n.Rank()))
				if err := n.Bind(a, buf); err != nil {
					return err
				}
				return n.WriteArray(a)
			}); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}

			d.hub.Close()
			time.Sleep(100 * time.Millisecond) // idle while the links go down
			t0 := time.Now()
			err = s.Run(func(n *Node) error { return n.WriteArray(a) })
			if took := time.Since(t0); took > patience {
				t.Errorf("the Run after the daemon died took %v, more than %v", took, patience)
			}
			if !errors.Is(err, ErrPeerLost) {
				t.Fatalf("Run after the daemon died: %v, want ErrPeerLost", err)
			}
			if err := s.Close(); err != nil {
				t.Logf("close: %v", err) // the control connection died with the daemon
			}
			d.Drain() //nolint:errcheck // its I/O nodes lost their hub: they fail, and say so
		})
	}
}

// TestSessionChannelKeepsErrorsTyped: whichever sentinel a session
// command fails with — including the four the control channel used to
// flatten into plain strings, and ErrSeqWindow, which an attach past the
// last session ID returns — the client's error still satisfies
// errors.Is after the JSON round trip.
func TestSessionChannelKeepsErrorsTyped(t *testing.T) {
	for _, sentinel := range []error{
		core.ErrTimeout, core.ErrPeerLost, core.ErrNoCommittedEpoch, core.ErrCorrupt,
		core.ErrBusy, core.ErrSchemaMismatch, core.ErrUnknownArray, core.ErrDraining,
		core.ErrSeqWindow,
	} {
		wire, err := json.Marshal(fail(fmt.Errorf("core: array %q: %w", "X", sentinel)))
		if err != nil {
			t.Fatal(err)
		}
		var rep ctlReply
		if err := json.Unmarshal(wire, &rep); err != nil {
			t.Fatal(err)
		}
		if got := core.SentinelError(rep.Code, rep.Error); rep.OK || !errors.Is(got, sentinel) {
			t.Errorf("%v reached the client as %v (reply %s)", sentinel, got, wire)
		}
	}
}

// procIOBytes returns rchar + wchar of /proc/self/io: every byte this
// process has moved through a read- or write-like system call.
func procIOBytes(t *testing.T) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, key := range []string{"rchar", "wchar"} {
		var n int64
		for _, line := range strings.Split(string(data), "\n") {
			if val, ok := strings.CutPrefix(line, key+": "); ok {
				n, err = strconv.ParseInt(val, 10, 64)
				if err != nil {
					t.Fatalf("/proc/self/io: %s: %v", key, err)
				}
			}
		}
		total += n
	}
	return total
}

// TestDaemonIOBytesPerUserByte guards the hub-local data path: a byte a
// session writes crosses the kernel three times inside this process —
// the client's socket write, the hub's socket read (which lands in the
// I/O node's mailbox), the file write — and a byte it reads likewise:
// the I/O node's sendfile from the file onto the client's socket (which
// the kernel counts as a read and a write, as it would the pread and
// writev it replaces), the client's socket read. Every byte read takes
// that zero-copy route. I/O nodes that dialed their own hub would make
// it five. Not parallel: /proc/self/io counts the whole process.
func TestDaemonIOBytesPerUserByte(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/self/io is Linux-only")
	}
	d := startTestDaemon(t, t.TempDir(), Tuning{})
	defer d.Drain()
	const nodes = 2
	a, err := NewArray("io", []int{1024, 1024}, 4, // 4 MiB
		NewLayout("mem", []int{nodes}), []Distribution{BLOCK, NONE},
		NewLayout("disk", []int{2}), []Distribution{BLOCK, NONE})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Dial(SessionConfig{Addr: d.Addr(), Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	before, zc0 := procIOBytes(t), d.reg.Counter("zero_copy_bytes").Value()
	err = s.Run(func(n *Node) error {
		buf := make([]byte, n.ChunkBytes(a))
		fillPattern(buf, int64(n.Rank()))
		want := append([]byte(nil), buf...)
		if err := n.Bind(a, buf); err != nil {
			return err
		}
		if err := n.WriteArray(a); err != nil {
			return err
		}
		for i := range buf {
			buf[i] = 0
		}
		if err := n.ReadArray(a); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d: read differs from written", n.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := procIOBytes(t) - before
	user := int64(2 * 4 << 20) // written once, read once
	if ratio := float64(moved) / float64(user); ratio > 3.1 {
		t.Fatalf("%d syscall bytes for %d user bytes: %.3f per user byte, want at most 3.1", moved, user, ratio)
	} else {
		t.Logf("%.3f syscall bytes per user byte", ratio)
	}
	if zc := d.reg.Counter("zero_copy_bytes").Value() - zc0; zc != user/2 {
		t.Errorf("zero_copy_bytes = %d for a %d-byte natural read, want every byte", zc, user/2)
	}
}
