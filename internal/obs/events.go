package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// The structured event log: one JSON object per line, append-only.
//
// Where the Recorder answers "what was every node doing, microsecond
// by microsecond", the event log answers "what happened to the
// deployment": sessions attaching and detaching, arrays opened, tuning
// reloaded, SLO objectives violated, traces dumped. Lifecycle events
// are rare (per-session, not per-message), so each one is marshalled
// and flushed on the spot — a crash loses nothing already emitted, and
// `tail -f events.jsonl` is a live operations feed.

// EventLog writes lifecycle events as JSON lines. A nil *EventLog is
// the disabled state: Emit and Close are no-ops, so callers thread it
// unconditionally.
type EventLog struct {
	mu sync.Mutex
	f  *os.File // nil once closed
}

// OpenEventLog opens (appending, creating if needed) a JSON-lines
// event log at path.
func OpenEventLog(path string) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: event log: %w", err)
	}
	return &EventLog{f: f}, nil
}

// Emit appends one event: the given fields plus "event" (the type) and
// "ts" (wall-clock RFC3339Nano). fields may be nil. Marshalling
// failures (a non-serializable field value) drop the offending event
// rather than corrupting the line discipline.
func (l *EventLog) Emit(typ string, fields map[string]any) {
	if l == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["event"] = typ
	rec["ts"] = time.Now().Format(time.RFC3339Nano)
	b, err := json.Marshal(rec) // map keys marshal sorted: deterministic lines
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		_, _ = l.f.Write(b)
	}
}

// Close closes the underlying file, if any. Further Emits no-op.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReadEventLog parses a JSON-lines event log back into one map per
// line — how tests (and pandastat -check) tail the log. Blank lines
// are skipped; a malformed line is an error, since the writer flushes
// whole lines only.
func ReadEventLog(path string) ([]map[string]any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			return out, fmt.Errorf("obs: event log %s line %d: %w", path, len(out)+1, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}
