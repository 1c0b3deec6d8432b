package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Chrome trace-event export. The recorder's tracks map onto the trace
// format's process/thread hierarchy: the part of a track name before
// the first "/" is the process (one per node: "client0", "server1"),
// the remainder is the thread (a stage activity such as "storage";
// plain tracks get thread "main"). The result loads directly in
// ui.perfetto.dev or chrome://tracing, one lane per node/stage, which
// makes the storage stage's disk/network overlap visible as concurrent
// slices on a server's "main" (mover) and "storage" lanes.

// ChromeEvent is one entry of the trace-event JSON array. Phases used
// here: "X" (complete span, with dur), "i" (instant), "M" (metadata:
// process_name/thread_name). Timestamps and durations are microseconds
// as floats, per the format.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the object form of the trace-event format.
type ChromeTrace struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// splitTrack separates a track name into its process and thread parts.
func splitTrack(name string) (process, thread string) {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, "main"
}

// ChromeTraceFrom converts the recorder's events into the trace-event
// object form, including process/thread naming metadata. Deterministic
// given deterministic events. Safe against concurrent recording: the
// tracks and events are captured as one consistent snapshot.
func ChromeTraceFrom(r *Recorder) *ChromeTrace {
	tracks, events, _ := r.Snapshot()
	return ChromeTraceFromSnapshot(tracks, events)
}

// ChromeTraceFromSnapshot converts an already-captured (tracks, events)
// pair — from Recorder.Snapshot — into the trace-event object form.
func ChromeTraceFromSnapshot(tracks []string, events []Event) *ChromeTrace {
	pids := map[string]int{}
	tids := make([]int, len(tracks))
	trackPid := make([]int, len(tracks))
	threadsOf := map[string]int{}
	var meta []ChromeEvent
	for i, name := range tracks {
		proc, thread := splitTrack(name)
		pid, ok := pids[proc]
		if !ok {
			pid = len(pids) + 1
			pids[proc] = pid
			meta = append(meta, ChromeEvent{
				Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": proc},
			})
		}
		threadsOf[proc]++
		tid := threadsOf[proc]
		trackPid[i], tids[i] = pid, tid
		meta = append(meta, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": thread},
		})
	}

	out := &ChromeTrace{TraceEvents: meta}
	for _, e := range events {
		ce := ChromeEvent{
			Name: e.Name,
			Cat:  e.Cat.String(),
			Ph:   "X",
			Ts:   float64(e.Start.Nanoseconds()) / 1e3,
			Dur:  float64(e.Dur.Nanoseconds()) / 1e3,
			Pid:  trackPid[e.Track],
			Tid:  tids[e.Track],
			Args: map[string]any{"seq": e.Seq, "bytes": e.Bytes},
		}
		if e.Instant {
			ce.Ph, ce.S, ce.Dur = "i", "t", 0
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return out
}

// WriteChromeTrace serializes the recorded events as Chrome trace-event
// JSON, loadable in ui.perfetto.dev.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ChromeTraceFrom(r))
}

// SaveTrace ends a traced run: it writes the recorded events to path as
// Chrome trace-event JSON, then prints to w where they went and the
// per-operation phase breakdown reconstructed from them.
func (r *Recorder) SaveTrace(path string, w io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: wrote %d events to %s (load at https://ui.perfetto.dev)\n", len(r.Events()), path)
	fmt.Fprint(w, RenderPhases(Phases(r)))
	return nil
}

// ParseChromeTrace parses and validates trace-event JSON: it must be
// the object form, hold at least one non-metadata event, and every
// event must have a known phase and non-negative timestamp/duration.
func ParseChromeTrace(data []byte) (*ChromeTrace, error) {
	var tr ChromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("obs: trace does not parse: %w", err)
	}
	spans := 0
	for i, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
		case "X", "i":
			spans++
		default:
			return nil, fmt.Errorf("obs: event %d has unknown phase %q", i, e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			return nil, fmt.Errorf("obs: event %d has negative time (ts=%v dur=%v)", i, e.Ts, e.Dur)
		}
	}
	if spans == 0 {
		return nil, fmt.Errorf("obs: trace holds no events")
	}
	return &tr, nil
}
