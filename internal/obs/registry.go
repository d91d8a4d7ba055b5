package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of instruments. Counter/Gauge/Histogram
// are get-or-create: the first caller for a name allocates the
// instrument, later callers share it, so independent pipeline layers can
// resolve the same metric by name. All methods are safe for concurrent
// use; the hot path never touches the registry (instruments are resolved
// once and then updated via their own atomics).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	funcs  map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		funcs:  make(map[string]func() int64),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (bounds are ignored if the name already exists).
// Returns nil (a no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a pull-style metric: fn is invoked at snapshot
// time. Use for values owned elsewhere (e.g. the imaging pool's
// package-level hit/miss counters). Re-registering a name replaces the
// previous function. No-op on a nil registry.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// MetricValue is one named scalar in a snapshot.
type MetricValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// MetricHistogram is one named histogram in a snapshot.
type MetricHistogram struct {
	Name string `json:"name"`
	HistogramSnapshot
}

// Snapshot is a deterministic point-in-time view of a registry:
// every slice is sorted by name so encoding it is reproducible.
type Snapshot struct {
	Counters   []MetricValue     `json:"counters"`
	Gauges     []MetricValue     `json:"gauges"`
	Histograms []MetricHistogram `json:"histograms"`
}

// Snapshot captures every instrument. The maps are walked under the
// registry lock and the results sorted by name, so two snapshots of an
// idle registry are byte-identical when encoded.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	type pull struct {
		name string
		fn   func() int64
	}
	r.mu.Lock()
	snap := Snapshot{
		Counters:   make([]MetricValue, 0, len(r.counts)+len(r.funcs)),
		Gauges:     make([]MetricValue, 0, len(r.gauges)),
		Histograms: make([]MetricHistogram, 0, len(r.hists)),
	}
	for name, c := range r.counts {
		snap.Counters = append(snap.Counters, MetricValue{Name: name, Value: c.Value()})
	}
	pulls := make([]pull, 0, len(r.funcs))
	for name, fn := range r.funcs {
		pulls = append(pulls, pull{name: name, fn: fn})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, MetricValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		snap.Histograms = append(snap.Histograms, MetricHistogram{Name: name, HistogramSnapshot: h.Snapshot()})
	}
	r.mu.Unlock()
	// Pull functions run outside the lock (they may be arbitrarily slow or
	// re-enter the registry) and in sorted order, so call order is stable.
	sort.Slice(pulls, func(i, j int) bool { return pulls[i].name < pulls[j].name })
	for _, p := range pulls {
		snap.Counters = append(snap.Counters, MetricValue{Name: p.name, Value: p.fn()})
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

// WriteJSON writes the current snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("obs: encoding snapshot: %w", err)
	}
	return nil
}

// expvarRegs maps each expvar name PublishExpvar has published to the
// registry it currently shows.
var expvarRegs sync.Map // string → *atomic.Pointer[Registry]

// PublishExpvar exposes the registry under the given expvar name (the
// standard /debug/vars page). expvar names are process-global and
// cannot be unpublished, so publishing the same name again re-points it
// at the latest registry: a process that rebuilds its observability
// stack shows the live one, not the first. No-op on a nil registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	v, loaded := expvarRegs.LoadOrStore(name, new(atomic.Pointer[Registry]))
	cur := v.(*atomic.Pointer[Registry])
	cur.Store(r)
	if !loaded {
		expvar.Publish(name, expvar.Func(func() any { return cur.Load().Snapshot() }))
	}
}
