package main

import (
	"errors"
	"fmt"
	"math"
)

var errAAFailed = errors.New("two sets of runs of the same code differ by more than a bound")

// aaRounds is how many times -aa runs the end-to-end set; rounds are
// labelled A and B in turn, so each label gets half.
const aaRounds = 6

// runAA runs the same code against itself: the end-to-end set six
// times, alternately labelled A and B, each round on its own seed. For
// every metric and workload it prints the two medians, how far apart
// they are and the bound, and fails if any pair is further apart than
// its bound — a benchmark that cannot tell A from A cannot tell a
// regression from noise.
func runAA(defs []*workloadDef, opts runOpts) error {
	// values[workload][metric][label] are that label's rounds.
	values := map[string]map[string][2][]float64{}
	for round := 0; round < aaRounds; round++ {
		label := round % 2
		o := opts
		o.seed = opts.seed + int64(round)
		for _, def := range defs {
			run := runChildren(def, o, minChildren, false)
			printRunHeader(fmt.Sprintf("A/A round %d (%c)", round+1, 'A'+label), run)
			if err := checkSurvivors(run); err != nil {
				return fmt.Errorf("%s: %w", def.name, err)
			}
			if values[def.name] == nil {
				values[def.name] = map[string][2][]float64{}
			}
			for name, v := range endToEndValues(run) {
				pair := values[def.name][name]
				pair[label] = append(pair[label], v)
				values[def.name][name] = pair
			}
		}
	}
	fmt.Printf("\n%-14s %-28s %12s %12s %8s %7s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	failed := false
	for _, def := range defs {
		for _, m := range endToEnd {
			pair := values[def.name][m.name]
			a, b := median(pair[0]), median(pair[1])
			diff := math.Abs(a-b) / a
			verdict := ""
			if !(diff <= m.bound) {
				verdict, failed = "  EXCEEDS", true
			}
			fmt.Printf("%-14s %-28s %12.6g %12.6g %7.2f%% %6.0f%%%s\n", def.name, m.name, a, b, 100*diff, 100*m.bound, verdict)
		}
	}
	if failed {
		return errAAFailed
	}
	return nil
}
