// pandatrace inspects Chrome trace-event JSON written by pandabench or
// pandasim (-trace) or dumped by pandad: it validates the file, summarizes
// each track, and reconstructs the per-operation phase breakdown.
//
//	go run ./cmd/pandatrace trace.json          # summarize
//	go run ./cmd/pandatrace -check trace.json   # validate only (CI): exit 1 unless valid and non-empty
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"panda/internal/obs"
)

func main() {
	check := flag.Bool("check", false, "validate only: exit nonzero unless the trace parses and holds at least one event")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pandatrace [-check] trace.json")
		os.Exit(2)
	}
	path := flag.Arg(0)

	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandatrace: %v\n", err)
		os.Exit(1)
	}
	tr, err := obs.ParseChromeTrace(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pandatrace: %s: %v\n", path, err)
		os.Exit(1)
	}
	if *check {
		fmt.Printf("%s: valid, %d events\n", path, len(tr.TraceEvents))
		return
	}

	// Per-track summary: resolve names from the metadata events, then
	// count spans and span time per (pid, tid).
	type key struct{ pid, tid int }
	names := map[key]string{}
	procs := map[int]string{}
	type agg struct {
		spans, instants int
		busy            time.Duration
		bytes           int64
	}
	tracks := map[key]*agg{}
	for _, e := range tr.TraceEvents {
		k := key{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if n, ok := e.Args["name"].(string); ok {
				if e.Name == "process_name" {
					procs[e.Pid] = n
				} else if e.Name == "thread_name" {
					names[k] = n
				}
			}
		case "X", "i":
			a := tracks[k]
			if a == nil {
				a = &agg{}
				tracks[k] = a
			}
			if e.Ph == "i" {
				a.instants++
			} else {
				a.spans++
				a.busy += time.Duration(e.Dur * 1e3)
			}
			if b, ok := e.Args["bytes"].(float64); ok {
				a.bytes += int64(b)
			}
		}
	}
	keys := make([]key, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	fmt.Printf("%s: %d events\n\n", path, len(tr.TraceEvents))
	fmt.Printf("%-24s %7s %8s %14s %14s\n", "track", "spans", "instants", "busy", "bytes")
	for _, k := range keys {
		a := tracks[k]
		name := procs[k.pid]
		if t := names[k]; t != "" && t != "main" {
			name += "/" + t
		}
		fmt.Printf("%-24s %7d %8d %14s %14d\n",
			name, a.spans, a.instants, a.busy.Round(time.Microsecond), a.bytes)
	}
	fmt.Println()
	fmt.Print(obs.RenderPhases(obs.PhasesFromChrome(tr)))
}
