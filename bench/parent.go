package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Children per workload. Sixteen is the floor below which the medians
// stop repeating; the run fails rather than report fewer.
const (
	minChildren   = 16
	maxChildren   = 24
	traceChildren = 4 // floor for the spans-on children of a traced run
	quickChildren = 2
	quickIters    = 2
	quickWarm     = 1
)

// childDeadline is how long a child may run before the parent kills it:
// a healthy one takes two seconds, a collective that times out twenty.
const childDeadline = 90 * time.Second

const childDirPrefix = "child-"

// runOpts is what one invocation fixes for every workload it runs.
type runOpts struct {
	seed     int64
	seconds  float64 // time to spend measuring one workload
	quick    bool
	dataRoot string
}

// workloadRun is everything the children of one workload reported.
type workloadRun struct {
	def       *workloadDef
	iters     int
	floor     int           // fewest children the metrics may rest on
	started   int           // children run, K
	children  []childResult // those that finished every op
	attempted int
	failed    int
	incorrect []string
	errs      []string
	wall      time.Duration
}

// refuseLiveChildren fails if a child of an earlier invocation still
// runs under root — two benchmarks at once measure each other — and
// sweeps the directories dead children left.
func refuseLiveChildren(root string) error {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(strings.TrimPrefix(e.Name(), childDirPrefix))
		if err != nil || !strings.HasPrefix(e.Name(), childDirPrefix) {
			continue
		}
		cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err == nil && bytes.Contains(cmdline, []byte("-child")) {
			return fmt.Errorf("benchmark child %d of an earlier run is still alive; stop it first", pid)
		}
		if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// spawnChild runs one fresh child process and returns what it printed.
// The error says why a child gave no result: it crashed, was killed at
// the deadline, or exited non-zero before printing.
func spawnChild(def *workloadDef, opts runOpts, warm, iters int, seed int64, spans bool) (res childResult, err error) {
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
	defer cancel()
	args := []string{"-child", def.name, "-data-root", opts.dataRoot,
		"-seed", strconv.FormatInt(seed, 10), "-warm", strconv.Itoa(warm), "-iters", strconv.Itoa(iters),
		"-t0", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if spans {
		args = append(args, "-spans")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Start(); err != nil {
		return res, err
	}
	runErr := cmd.Wait()
	// The child removes its directory itself; this covers one that died.
	os.RemoveAll(filepath.Join(opts.dataRoot, childDirPrefix+strconv.Itoa(cmd.Process.Pid)))
	if runErr != nil {
		return res, fmt.Errorf("child %d: %w", cmd.Process.Pid, runErr)
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return res, fmt.Errorf("child %d: unreadable result: %w", cmd.Process.Pid, err)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// runChildren runs fresh children of one workload, one at a time: until
// floor of them have finished, then more while the time budget lasts,
// up to maxChildren in all. Iterations per child are fixed; only the
// number of children follows the clock.
func runChildren(def *workloadDef, opts runOpts, floor int, spans bool) *workloadRun {
	warm, iters, most := def.warm, def.iters, maxChildren
	if opts.quick {
		warm, iters, floor, most = quickWarm, quickIters, quickChildren, quickChildren
	}
	run := &workloadRun{def: def, iters: iters, floor: floor}
	start := time.Now()
	budget := time.Duration(opts.seconds * float64(time.Second))
	for k := 0; k < most; k++ {
		elapsed := time.Since(start)
		if len(run.children) >= floor && elapsed+elapsed/time.Duration(k) > budget {
			break
		}
		// Children differ in buffer contents and tenant order, all drawn
		// from the one seed.
		res, err := spawnChild(def, opts, warm, iters, opts.seed*1000+int64(k), spans)
		run.started++
		if err != nil {
			// Nothing says how far it got: count the op it died in.
			run.attempted++
			run.failed++
			run.errs = append(run.errs, err.Error())
			continue
		}
		run.attempted += res.Attempted
		run.failed += res.Failed
		if res.Incorrect != "" {
			run.incorrect = append(run.incorrect, res.Incorrect)
		}
		if res.Err != "" {
			run.errs = append(run.errs, res.Err)
		}
		if res.Err != "" || res.Incorrect != "" {
			if res.Failed == 0 {
				// It failed outside any op: bring-up, shutdown, scrub, reference path.
				run.attempted++
				run.failed++
			}
			continue
		}
		run.children = append(run.children, res)
	}
	run.wall = time.Since(start)
	return run
}
