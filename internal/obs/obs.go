// Package obs is the observability layer of the reproduction: a
// low-overhead tracing recorder and a small metrics registry threaded
// through the Panda client, server, storage stage, transports and
// disks.
//
// Tracing model: every node (client rank, server index) and every
// activity a node runs beside its main loop owns a Track; instrumented code emits spans
// (start, duration) and instant events onto its track, timestamped by
// the node's own clock.Clock. Under virtual time all clocks share the
// simulation's timeline, so traces are exact; under the wall clock the
// runtime hands every node the same origin, so traces are coherent
// within a process. Events land in a fixed-capacity ring buffer —
// recording one event is a mutex acquire plus a slot store, and an
// overfull ring overwrites its oldest events rather than growing or
// blocking, so tracing can stay on during long runs.
//
// A nil *Recorder (and a nil *Registry) is the disabled state: every
// method is nil-safe and free of allocation, so instrumented hot paths
// cost one predictable branch when observability is off.
package obs

import (
	"sync"
	"time"
)

// Cat classifies what a span's time was spent on. The categories are
// the phases the paper reasons with: planning, network transfer, disk
// transfer, pipeline stalls, and reorganization copies.
type Cat uint8

const (
	// CatOp spans one whole collective operation on one node.
	CatOp Cat = iota
	// CatPlan covers chunk assignment and sub-chunk planning.
	CatPlan
	// CatNet covers message movement: sub-chunk pulls, scatters, piece
	// serves.
	CatNet
	// CatDisk covers positioned file I/O (WriteAt/ReadAt).
	CatDisk
	// CatStall covers time a pipeline stage spent blocked on another
	// stage (write-behind queue full, prefetch not ready, final join).
	CatStall
	// CatReorg covers strided reorganization copies.
	CatReorg
	// CatCtl covers control traffic: op requests, schema broadcast,
	// completion collection.
	CatCtl
	// CatRecover covers failure handling: commit phases, chunk
	// reassignment after a server loss, client retries, roll-forward.
	CatRecover
)

// String returns the category's name as used in exported traces.
func (c Cat) String() string {
	switch c {
	case CatOp:
		return "op"
	case CatPlan:
		return "plan"
	case CatNet:
		return "net"
	case CatDisk:
		return "disk"
	case CatStall:
		return "stall"
	case CatReorg:
		return "reorg"
	case CatCtl:
		return "ctl"
	case CatRecover:
		return "recover"
	}
	return "?"
}

// catFromString inverts Cat.String; unknown strings map to CatCtl.
func catFromString(s string) Cat {
	switch s {
	case "op":
		return CatOp
	case "plan":
		return CatPlan
	case "net":
		return CatNet
	case "disk":
		return CatDisk
	case "stall":
		return CatStall
	case "reorg":
		return CatReorg
	case "recover":
		return CatRecover
	}
	return CatCtl
}

// Event is one recorded trace event. Start and Dur are measured on the
// emitting node's clock; Instant events have zero Dur and render as
// markers. Seq is the collective operation the event belongs to, or -1
// when unattributed.
type Event struct {
	Track   int32
	Cat     Cat
	Instant bool
	Seq     int32
	Name    string
	Start   time.Duration
	Dur     time.Duration
	Bytes   int64
}

// DefaultCapacity is the ring size NewRecorder uses when the caller
// passes a non-positive capacity: 64k events, a few MB.
const DefaultCapacity = 1 << 16

// Recorder collects trace events from every node of one deployment
// into a shared ring buffer. The zero value is not usable; a nil
// *Recorder is the disabled recorder (all methods no-op).
type Recorder struct {
	mu       sync.Mutex
	tracks   []string
	trackIdx map[string]int32
	buf      []Event
	next     int
	full     bool
	dropped  int64
}

// NewRecorder returns a recorder holding up to capacity events
// (DefaultCapacity when capacity <= 0). Once full, new events
// overwrite the oldest.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		trackIdx: make(map[string]int32),
		buf:      make([]Event, 0, capacity),
	}
}

// Track is a node's (or stage activity's) handle into a recorder. The
// zero Track — also what a nil Recorder hands out — is disabled:
// emitting on it is a no-op and Enabled reports false, so hot paths
// can skip the clock reads that feed a span.
type Track struct {
	r  *Recorder
	id int32
}

// Track interns a track name ("client0", "server1", "server1/storage")
// and returns its handle. A "/" splits the name into a Chrome trace
// process (the node) and thread (the stage); plain names get a "main"
// thread. Safe for concurrent use; nil recorders return the disabled
// Track.
func (r *Recorder) Track(name string) Track {
	if r == nil {
		return Track{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.trackIdx[name]; ok {
		return Track{r: r, id: id}
	}
	id := int32(len(r.tracks))
	r.tracks = append(r.tracks, name)
	r.trackIdx[name] = id
	return Track{r: r, id: id}
}

// Enabled reports whether events emitted on this track are recorded.
func (t Track) Enabled() bool { return t.r != nil }

// Span records a completed span on the track. start and end come from
// the emitting node's clock; seq is the operation sequence (-1 when
// unattributed); bytes is the payload the span moved (0 when
// meaningless).
func (t Track) Span(cat Cat, name string, seq int, start, end time.Duration, bytes int64) {
	if t.r == nil {
		return
	}
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.r.record(Event{Track: t.id, Cat: cat, Seq: int32(seq), Name: name, Start: start, Dur: dur, Bytes: bytes})
}

// Instant records a zero-duration marker on the track.
func (t Track) Instant(cat Cat, name string, seq int, at time.Duration, bytes int64) {
	if t.r == nil {
		return
	}
	t.r.record(Event{Track: t.id, Cat: cat, Instant: true, Seq: int32(seq), Name: name, Start: at, Bytes: bytes})
}

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next++
		if r.next == cap(r.buf) {
			r.next = 0
		}
		r.full = true
		r.dropped++
	}
	r.mu.Unlock()
}

// Events returns a copy of the recorded events in insertion order
// (oldest first). Events lost to ring overwrite are gone; Dropped
// counts them.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Snapshot returns the interned track names, the recorded events
// (oldest first) and the overwrite count as one consistent triple,
// taken under a single lock. Events() followed by TrackNames() can
// observe an event whose track was interned between the two calls;
// dump paths that index tracks by event (the flight recorder, the
// /status page) must use Snapshot instead.
func (r *Recorder) Snapshot() (tracks []string, events []Event, dropped int64) {
	if r == nil {
		return nil, nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tracks = make([]string, len(r.tracks))
	copy(tracks, r.tracks)
	events = make([]Event, 0, len(r.buf))
	if r.full {
		events = append(events, r.buf[r.next:]...)
		events = append(events, r.buf[:r.next]...)
	} else {
		events = append(events, r.buf...)
	}
	return tracks, events, r.dropped
}

// Dropped reports how many events were overwritten by ring wraparound.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// TrackNames returns the interned track names indexed by track id.
func (r *Recorder) TrackNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.tracks))
	copy(out, r.tracks)
	return out
}
