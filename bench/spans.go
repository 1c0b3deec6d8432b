package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"panda/internal/obs"
)

// Spans live in the benchmark only: they are recorded around the calls
// into each layer, kept in memory, and written out when the run ends.
// End-to-end metrics are always taken with the recorder nil.

// span is one timed call. Parent is the id of the span that caused it
// (0 for a root); spans of one collective share Op (0 outside any).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Track  string `json:"track"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the recorder's origin
	End    int64  `json:"end"`   // 0 while the call is still open
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// recorder collects spans. A nil *recorder is tracing off: begin
// returns 0 and end does nothing.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span and returns its id.
func (r *recorder) begin(track, name string, parent, op int) int {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Track: track, Name: name, Start: start})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far; spans still open are
// closed at the time of the call.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].End == 0 {
			out[i].End = now
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON, one process
// per named group and one thread per track, each span carrying its id,
// its parent and its op in args. cmd/pandatrace -check accepts the file.
func writeChromeTrace(path string, groups map[string][]span) error {
	var tr obs.ChromeTrace
	pid := 0
	for _, group := range sortedKeys(groups) {
		pid++
		tr.TraceEvents = append(tr.TraceEvents, obs.ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": group},
		})
		tids := map[string]int{}
		for _, s := range groups[group] {
			tid, ok := tids[s.Track]
			if !ok {
				tid = len(tids) + 1
				tids[s.Track] = tid
				tr.TraceEvents = append(tr.TraceEvents, obs.ChromeEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": s.Track},
				})
			}
			tr.TraceEvents = append(tr.TraceEvents, obs.ChromeEvent{
				Name: s.Name, Cat: s.Track, Ph: "X",
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: pid, Tid: tid,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	data, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
