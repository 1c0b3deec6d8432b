package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler serves a node's live observability surface:
//
//	/metrics      the registry as expvar-style JSON
//	/status       a plain-text live status page: serving/draining state,
//	              scheduler admission-queue depth and in-flight window,
//	              caller-supplied header (e.g. per-op summaries),
//	              registry dump, recent trace events
//	/debug/pprof  the standard Go profiler endpoints
//
// reg and rec may be nil (their sections render as disabled); status
// may be nil. draining, when non-nil, reports whether the deployment
// is refusing new work — a resident daemon passes its drain flag so
// /status stops claiming "serving" while a drain runs. pandad mounts
// this under the daemon telemetry plane.
func Handler(reg *Registry, rec *Recorder, status func(w io.Writer), draining func() bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "panda node status — %s\n\n", time.Now().Format(time.RFC3339))
		state := "serving"
		if draining != nil && draining() {
			state = "draining"
		}
		fmt.Fprintf(w, "state: %s\n", state)
		if reg != nil {
			fmt.Fprintf(w, "scheduler: queued=%d inflight=%d\n",
				reg.Gauge("sched_queue_depth").Value(), reg.Gauge("sched_inflight_ops").Value())
		}
		fmt.Fprintln(w)
		if status != nil {
			status(w)
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, "metrics:")
		_ = reg.WriteJSON(w)
		if rec != nil {
			names, events, dropped := rec.Snapshot()
			const tail = 40
			lo := 0
			if len(events) > tail {
				lo = len(events) - tail
			}
			fmt.Fprintf(w, "\nlast %d trace events (%d recorded, %d overwritten):\n",
				len(events)-lo, len(events), dropped)
			for _, e := range events[lo:] {
				kind := "span"
				if e.Instant {
					kind = "inst"
				}
				fmt.Fprintf(w, "  %-14s %-5s %-6s seq=%-3d %-24s start=%-14s dur=%-12s bytes=%d\n",
					names[e.Track], kind, e.Cat, e.Seq, e.Name, e.Start, e.Dur, e.Bytes)
			}
		} else {
			fmt.Fprintln(w, "\ntracing disabled (run with -trace)")
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "panda node observability\n\n  /metrics\n  /status\n  /debug/pprof/")
	})
	return mux
}
