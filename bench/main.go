// Command bench is the repository's wall-clock benchmark. See README.md.
//
//	bash bench/run.sh                                  # every workload, end to end
//	bash bench/run.sh -traced                          # and the per-layer run
//	bash bench/run.sh -aa                              # the same code against itself
//	bash bench/run.sh --workload ckpt_natural --seed 3 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seeds buffer contents and tenant order; the only input that varies")
		seconds  = flag.Float64("seconds", runSeconds, "time to spend measuring each workload")
		trace    = flag.Int("trace", 0, "1: run the per-layer measurement in place of the end-to-end one")
		traced   = flag.Bool("traced", false, "run the per-layer measurement after the end-to-end one")
		traceOut = flag.String("trace-out", "", "Chrome-trace file of the per-layer run (default <data-root>/trace-<workload>.json)")
		aa       = flag.Bool("aa", false, "run the end-to-end set six times, labelled A and B in turn, and compare")
		quick    = flag.Bool("quick", false, "two children of two iterations each: structure and correctness only")
		dataRoot = flag.String("data-root", ".bench_build/data", "directory the children's data directories are made in")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json as the metric tables define it, and exit")

		childOf = flag.String("child", "", "internal: measure this workload in this process")
		warm    = flag.Int("warm", 0, "internal: warm-up pairs of a child")
		iters   = flag.Int("iters", 0, "internal: timed iterations of a child")
		t0      = flag.Int64("t0", 0, "internal: when the parent started this child, Unix ns")
		spans   = flag.Bool("spans", false, "internal: record spans in this child")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *desc {
		os.Stdout.Write(describe()) //nolint:errcheck // a diagnostic print
		return
	}
	root, err := filepath.Abs(*dataRoot)
	if err != nil {
		fatal(err)
	}

	if *childOf != "" {
		def := workloadByName(*childOf)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *childOf))
		}
		dir := filepath.Join(root, childDirPrefix+strconv.Itoa(os.Getpid()))
		res := runChild(def, *seed, *warm, *iters, dir, time.Unix(0, *t0), *spans)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	defs := workloads
	if *workload != "all" {
		def := workloadByName(*workload)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []*workloadDef{def}
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		fatal(err)
	}
	if err := refuseLiveChildren(root); err != nil {
		fatal(err)
	}
	opts := runOpts{seed: *seed, seconds: *seconds, quick: *quick, dataRoot: root}
	printHost(opts)

	switch {
	case *aa:
		err = runAA(defs, opts)
	case *trace == 1:
		err = forEach(defs, func(def *workloadDef) error { return layerRun(def, opts, tracePath(*traceOut, root, def)) })
	default:
		err = forEach(defs, func(def *workloadDef) error {
			if err := endToEndRun(def, opts); err != nil || !*traced {
				return err
			}
			return layerRun(def, opts, tracePath(*traceOut, root, def))
		})
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func forEach(defs []*workloadDef, f func(*workloadDef) error) error {
	for _, def := range defs {
		if err := f(def); err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
	}
	return nil
}

func tracePath(flagValue, root string, def *workloadDef) string {
	if flagValue != "" {
		return flagValue
	}
	return filepath.Join(root, "trace-"+def.name+".json")
}

// printHost records what the numbers were taken on.
func printHost(opts runOpts) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s kernel=%s storage_backing=%s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)),
		storageBacking(opts.dataRoot), commit, opts.seed)
}

// checkSurvivors fails the run when too few children finished for the
// medians to mean anything.
func checkSurvivors(run *workloadRun) error {
	if len(run.children) >= run.floor {
		return nil
	}
	return fmt.Errorf("only %d of %d children finished, %d needed:\n  %s",
		len(run.children), run.started, run.floor, strings.Join(run.errs, "\n  "))
}

func printRunHeader(kind string, run *workloadRun) {
	fmt.Printf("%s %s: K=%d children (%d finished), N=%d iterations each, wall %.1f s, ops attempted %d failed %d\n",
		run.def.name, kind, run.started, len(run.children), run.iters, run.wall.Seconds(), run.attempted, run.failed)
	for _, e := range run.errs {
		fmt.Printf("  child failed: %s\n", e)
	}
	for _, e := range run.incorrect {
		fmt.Printf("  INCORRECT: %s\n", e)
	}
}

// endToEndRun measures one workload with tracing off and prints its
// end-to-end metrics, the contract's result line last.
func endToEndRun(def *workloadDef, opts runOpts) error {
	run := runChildren(def, opts, minChildren, false)
	printRunHeader("end-to-end", run)
	if err := checkSurvivors(run); err != nil {
		return err
	}
	values := endToEndValues(run)
	printMetrics(os.Stdout, values, unitsOf(endToEnd))
	return printResult(os.Stdout, run, values, endToEnd)
}
