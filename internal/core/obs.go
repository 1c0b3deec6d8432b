package core

import (
	"fmt"
	"time"

	"panda/internal/obs"
)

// obs.go is the core-side observability glue: per-node instrument
// handles resolved once at node construction, so the hot path pays a
// nil check — never a map lookup — per event.

// nodeMetrics caches a node's non-counter instruments (event counters
// live in the node's counters block, see counters.go). With
// Config.Metrics nil every field is nil and every use is a no-op (obs
// instruments are nil-safe).
type nodeMetrics struct {
	// packNanos is the real (host) time spent inside strided pack
	// copies — measured only when metrics are on, so it has no Stats
	// field.
	packNanos *obs.Counter
	// subLatency observes sub-chunk service time: write pulls from
	// first request to retirement, read sub-chunks from disk fetch to
	// last piece sent.
	subLatency *obs.Histogram
	// recvWait observes time blocked waiting for a protocol message —
	// the node-local flavour of message latency.
	recvWait *obs.Histogram
	// queueDepth observes the storage stage's window occupancy at every
	// hand-off: a write arriving (itself included), or the reads
	// outstanding when a read source is asked for the next sub-chunk.
	queueDepth *obs.Histogram
	// schedQueue is the live occupancy of the master's admission queue
	// (its dispatch window is the dispatch table's sched_inflight_ops).
	schedQueue *obs.Gauge
}

func newNodeMetrics(r *obs.Registry) nodeMetrics {
	if r == nil {
		return nodeMetrics{}
	}
	return nodeMetrics{
		packNanos:  r.Counter("pack_ns"),
		subLatency: r.Histogram("subchunk_latency_ns", obs.LatencyBounds),
		recvWait:   r.Histogram("recv_wait_ns", obs.LatencyBounds),
		queueDepth: r.Histogram("stage_queue_depth", obs.DepthBounds),
		schedQueue: r.Gauge("sched_queue_depth"),
	}
}

// traceLanes hands a node's executors a bounded set of reusable trace
// tracks: lane 0 is the node's own track ("<node>"), so a node serving
// one operation at a time traces on it alone; lane K ≥ 1 is
// "<node>/lane<K>". An executor records on the lowest lane free when it
// starts and gives it back when it retires, so the recorder's track
// table grows to the node's peak concurrency and stops — a track per
// operation would grow it for as long as the node runs, and the span's
// Seq already names the operation. The zero value is ready; a node's
// lanes are used from one goroutine (the server's router, the client's
// application).
type traceLanes struct {
	tracks []obs.Track
	busy   []bool
}

func (l *traceLanes) take(rec *obs.Recorder, role string, node int) (int, obs.Track) {
	k := 0
	for k < len(l.busy) && l.busy[k] {
		k++
	}
	if k == len(l.busy) {
		name := fmt.Sprintf("%s%d", role, node)
		if k > 0 {
			name += fmt.Sprintf("/lane%d", k)
		}
		l.busy = append(l.busy, false)
		l.tracks = append(l.tracks, rec.Track(name))
	}
	l.busy[k] = true
	return k, l.tracks[k]
}

func (l *traceLanes) free(k int) { l.busy[k] = false }

// opName renders an operation kind for traces and summaries.
func opName(op byte) string {
	switch op {
	case opWrite:
		return "write"
	case opRead:
		return "read"
	}
	return "?"
}

// packStart begins timing one pack/unpack copy when metrics are on; it
// returns the zero time otherwise. Host wall time, not the node clock:
// under virtual time a copy is instantaneous on the simulated clock,
// and its real CPU cost is exactly what this metric exposes.
func (m *nodeMetrics) packStart() time.Time {
	if m.packNanos == nil {
		return time.Time{}
	}
	return time.Now()
}

// packDone closes a packStart interval.
func (m *nodeMetrics) packDone(t0 time.Time) {
	if m.packNanos == nil {
		return
	}
	m.packNanos.Add(time.Since(t0).Nanoseconds())
}
