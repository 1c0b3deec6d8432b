package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a deployment's metrics: named counters, gauges,
// callback gauges and bounded histograms. Instruments are interned by
// name, so every node of a deployment resolving "msgs_sent" shares one
// counter and the registry aggregates cluster-wide. A nil *Registry is
// the disabled state: lookups return nil instruments whose methods
// no-op, costing the hot path one branch and no allocation.
type Registry struct {
	mu     sync.Mutex
	names  []string
	vars   map[string]any
	funcs  map[string]func() int64
	hists  map[string]*Histogram
	counts map[string]*Counter
	gauges map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		vars:   map[string]any{},
		funcs:  map[string]func() int64{},
		hists:  map[string]*Histogram{},
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
	}
}

func (r *Registry) intern(name string, v any) {
	if _, ok := r.vars[name]; !ok {
		r.vars[name] = v
		r.names = append(r.names, name)
	}
}

// Counter resolves (creating on first use) the named counter. Returns
// nil — a valid no-op instrument — on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{}
	r.counts[name] = c
	r.intern(name, c)
	return c
}

// Gauge resolves (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.intern(name, g)
	return g
}

// Histogram resolves (creating on first use) the named histogram.
// bounds are the ascending inclusive upper edges of the buckets; one
// overflow bucket is implicit. A second resolve of the same name keeps
// the first bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(bounds)
	r.hists[name] = h
	r.intern(name, h)
	return h
}

// Func registers a callback gauge: fn is evaluated at export time.
// Useful for externally-owned values such as buffer-pool occupancy.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; ok {
		return
	}
	r.funcs[name] = fn
	r.intern(name, fn)
}

// Unregister removes the named instrument from the registry, so a
// dynamic entity (a client session, say) can retire its gauges when it
// goes away instead of leaking a registry entry per lifetime. No-op
// when the name is unknown or the registry is nil.
func (r *Registry) Unregister(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.vars[name]; !ok {
		return
	}
	delete(r.vars, name)
	delete(r.funcs, name)
	delete(r.hists, name)
	delete(r.counts, name)
	delete(r.gauges, name)
	for i, n := range r.names {
		if n == name {
			r.names = append(r.names[:i], r.names[i+1:]...)
			break
		}
	}
}

// LabelName renders an instrument name with key=value labels in the
// conventional brace form: LabelName("session_inflight", "sid", "3")
// is `session_inflight{sid=3}`. The registry treats the result as an
// ordinary (interned, sortable) name; pairs render in argument order.
func LabelName(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing atomic counter. A counter may
// chain to a parent: every Add then also lands on the parent, and on its
// parent in turn, so a fine-grained counter and the totals it belongs to
// are one event counted once at the source.
type Counter struct {
	v  atomic.Int64
	up *Counter
}

// ChainTo makes parent receive every subsequent Add to c. Call it
// before the counter is shared; nil unchains.
func (c *Counter) ChainTo(parent *Counter) { c.up = parent }

// Add increments the counter and every counter it chains to; no-op on
// nil.
func (c *Counter) Add(n int64) {
	for ; c != nil; c = c.up {
		c.v.Add(n)
	}
}

// Value reads the counter; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value; no-op on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n and returns the new value (0 on nil).
func (g *Gauge) Add(n int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(n)
}

// Value reads the gauge; 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into bounded buckets. All operations
// are atomic; Observe is lock-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	n, sum atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value; no-op on nil.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a consistent-enough copy of a histogram for export.
type HistSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot copies the histogram's state; zero value on nil.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.n.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// LatencyBounds are default histogram edges for durations in
// nanoseconds: 1 µs to ~17 s in powers of four.
var LatencyBounds = []int64{
	1e3, 4e3, 16e3, 64e3, 256e3,
	1e6, 4e6, 16e6, 64e6, 256e6,
	1e9, 4e9, 16e9,
}

// DepthBounds are default histogram edges for queue depths and
// occupancy counts: powers of two up to 1024.
var DepthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// WriteJSON exports every instrument as one JSON object (the expvar
// idiom): counters and gauges as numbers, callback gauges evaluated
// now, histograms as {bounds, counts, count, sum}. Keys are sorted, so
// the output is deterministic given deterministic values.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	r.mu.Unlock()
	sort.Strings(names)

	out := make(map[string]json.RawMessage, len(names))
	for _, name := range names {
		r.mu.Lock()
		v := r.vars[name]
		r.mu.Unlock()
		var raw []byte
		var err error
		switch x := v.(type) {
		case *Counter:
			raw, err = json.Marshal(x.Value())
		case *Gauge:
			raw, err = json.Marshal(x.Value())
		case *Histogram:
			raw, err = json.Marshal(x.Snapshot())
		case func() int64:
			raw, err = json.Marshal(x())
		default:
			continue
		}
		if err != nil {
			return err
		}
		out[name] = raw
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
