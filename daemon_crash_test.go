package panda

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"panda/internal/storage"
)

// daemon_crash_test.go extends the PR 4 crash-point sweep to the
// daemon lifecycle: pandad subprocesses are killed at staged points
// (and with plain SIGKILL), restarted over the same directory, and the
// catalog plus committed data must come back bit-exact with a clean
// scrub.

var pandadBin struct {
	once sync.Once
	path string
	err  error
}

// buildPandad compiles cmd/pandad once per test binary run.
func buildPandad(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess test")
	}
	pandadBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "pandad-bin-")
		if err != nil {
			pandadBin.err = err
			return
		}
		path := filepath.Join(dir, "pandad")
		out, err := exec.Command("go", "build", "-o", path, "./cmd/pandad").CombinedOutput()
		if err != nil {
			pandadBin.err = fmt.Errorf("build pandad: %v\n%s", err, out)
			return
		}
		pandadBin.path = path
	})
	if pandadBin.err != nil {
		t.Fatal(pandadBin.err)
	}
	return pandadBin.path
}

// daemonProc is a pandad subprocess under test.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	log  *bytes.Buffer
}

// startDaemonProc launches pandad over dir and waits for its address.
func startDaemonProc(t *testing.T, bin, dir string, extraEnv ...string) *daemonProc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir, "-addr-file", addrFile, "-optimeout", "30s")
	cmd.Env = append(os.Environ(), extraEnv...)
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd, log: &log}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
		if t.Failed() {
			t.Logf("daemon log:\n%s", log.String())
		}
	})
	for i := 0; i < 400; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.addr = string(b)
			return p
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("daemon never published its address; log:\n%s", log.String())
	return nil
}

// waitExit reaps the daemon and returns its exit code (-1 = signal).
func waitExit(t *testing.T, p *daemonProc) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(60 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("daemon did not exit; log:\n%s", p.log.String())
		return -2
	}
}

// drainProc sends SIGTERM and requires a clean exit.
func drainProc(t *testing.T, p *daemonProc) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, p); code != 0 {
		t.Fatalf("drain exited %d; log:\n%s", code, p.log.String())
	}
}

// smokeProc runs one pandad client-mode operation against addr.
func smokeProc(bin, addr, op, name string, seed int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-connect", addr, "-smoke", op,
		"-array", name, "-nodes", "2", "-seed", strconv.FormatInt(seed, 10))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("smoke %s: %v\n%s", op, err, out)
	}
	return nil
}

// scrubDir asserts a clean fsck verdict over the daemon's I/O dirs.
func scrubDir(t *testing.T, dir string) {
	t.Helper()
	var disks []storage.Disk
	for i := 0; ; i++ {
		d, err := storage.NewOSDisk(filepath.Join(dir, fmt.Sprintf("ion%d", i)))
		if err != nil || len(disks) == 2 {
			break
		}
		disks = append(disks, d)
	}
	rep, err := storage.Scrub(disks, false)
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("scrub unhealthy: %+v", rep.Issues)
	}
}

// TestDaemonCrashPointSweep kills pandad at each staged lifecycle
// point, restarts it over the same directory, and requires the catalog
// and data to recover: a clean write/read cycle, a clean drain, and a
// clean scrub.
func TestDaemonCrashPointSweep(t *testing.T) {
	bin := buildPandad(t)
	for _, point := range []string{"post-attach", "post-open", "post-write"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			p := startDaemonProc(t, bin, dir, "PANDAD_CRASH_POINT="+point)
			// The client drives the daemon into the crash point; its own
			// outcome is incidental (post-write may complete client-side
			// before the daemon dies, the earlier points kill the attach).
			_ = smokeProc(bin, p.addr, "write", "X", 42)
			if code := waitExit(t, p); code != 3 {
				t.Fatalf("crash point %s never fired (exit %d); log:\n%s", point, code, p.log.String())
			}

			// Restart over the wreckage: recovery scrubs, the catalog
			// loads, and the same schema is accepted again.
			p2 := startDaemonProc(t, bin, dir)
			if err := smokeProc(bin, p2.addr, "write", "X", 42); err != nil {
				t.Fatalf("write after restart: %v", err)
			}
			if err := smokeProc(bin, p2.addr, "read", "X", 42); err != nil {
				t.Fatalf("read after restart: %v", err)
			}
			drainProc(t, p2)
			scrubDir(t, dir)
		})
	}
}

// TestDaemonSIGKILLCommittedData: data a client committed before the
// daemon was SIGKILLed — no drain, no flush — is served bit-exact by a
// restarted daemon, and the catalog recorded the array durably.
func TestDaemonSIGKILLCommittedData(t *testing.T) {
	bin := buildPandad(t)
	dir := t.TempDir()

	p := startDaemonProc(t, bin, dir)
	if err := smokeProc(bin, p.addr, "write", "K", 7); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if code := waitExit(t, p); code != -1 {
		t.Fatalf("expected SIGKILL death, exit %d", code)
	}

	p2 := startDaemonProc(t, bin, dir)
	if err := smokeProc(bin, p2.addr, "read", "K", 7); err != nil {
		t.Fatalf("read after SIGKILL restart: %v", err)
	}
	drainProc(t, p2)
	scrubDir(t, dir)

	// The recovered catalog must still hold K, and the decision record
	// (the authority on what is committed) must hold it committed.
	d0, err := storage.NewOSDisk(filepath.Join(dir, "ion0"))
	if err != nil {
		t.Fatal(err)
	}
	cat, err := storage.LoadCatalog(d0)
	if err != nil {
		t.Fatalf("catalog after SIGKILL: %v", err)
	}
	if _, ok := cat.Get("K"); !ok {
		t.Fatal("catalog entry K missing after SIGKILL")
	}
	if ep, ok, err := storage.ReadDecision(d0, "K"); err != nil || !ok || ep < 1 {
		t.Fatalf("decision record of K: epoch %d ok=%v err=%v, want committed", ep, ok, err)
	}
}

// TestDaemonSIGHUPReload: the -config file is re-read on SIGHUP and
// the new tuning is observable through a client's Info.
func TestDaemonSIGHUPReload(t *testing.T) {
	bin := buildPandad(t)
	dir := t.TempDir()
	cfgPath := filepath.Join(t.TempDir(), "tuning.json")
	if err := os.WriteFile(cfgPath, []byte(`{"max_inflight": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}

	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir,
		"-addr-file", addrFile, "-config", cfgPath)
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd, log: &log}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	})
	for i := 0; i < 400 && p.addr == ""; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.addr = string(b)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if p.addr == "" {
		t.Fatalf("no address; log:\n%s", log.String())
	}

	if err := os.WriteFile(cfgPath, []byte(`{"max_inflight": 5, "weights": {"ops": 9}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}

	// The reload is asynchronous to the signal; poll Info until the new
	// knobs appear.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := Dial(SessionConfig{Addr: p.addr, Nodes: 1})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		info, err := s.Info()
		s.Close() //nolint:errcheck
		if err != nil {
			t.Fatalf("info: %v", err)
		}
		if info.MaxInflight == 5 && info.Weights["ops"] == 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reload not observed: %+v; log:\n%s", info, log.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	drainProc(t, p)
}
