package metrics

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind distinguishes instrument types in snapshots.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// instrument is one registered metric.
type instrument struct {
	name    string
	kind    Kind
	counter *Counter
	gauge   *Gauge
	gaugeFn func() int64
	hist    *Histogram
}

// Registry holds the full instrument tree for one simulation. It is not
// safe for concurrent use — the simulation is single-threaded, and the
// registry inherits that model.
type Registry struct {
	byName map[string]int
	items  []instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Scope returns a scope rooted at name (dotted-path prefix, e.g.
// "host.alpha").
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{reg: r, prefix: name}
}

// register adds an instrument, deterministically suffixing the name
// (#2, #3, ...) if it is already taken so two same-named subsystems
// cannot silently share or clobber an entry.
func (r *Registry) register(ins instrument) {
	name := ins.name
	for i := 2; ; i++ {
		if _, taken := r.byName[name]; !taken {
			break
		}
		name = ins.name + "#" + strconv.Itoa(i)
	}
	ins.name = name
	r.byName[name] = len(r.items)
	r.items = append(r.items, ins)
}

// Scope is a named subtree of a registry. A nil *Scope is valid and
// inert: every method returns a nil instrument or does nothing, so
// subsystems hold a scope pointer and never test whether metrics are
// enabled.
type Scope struct {
	reg    *Registry
	prefix string
}

// Sub returns a child scope ("kern" under "host.alpha" names
// "host.alpha.kern.*").
func (s *Scope) Sub(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, prefix: s.prefix + "." + name}
}

// Name returns the scope's full dotted prefix.
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.prefix
}

func (s *Scope) full(name string) string { return s.prefix + "." + name }

// Counter binds an existing counter (typically a Stats struct field)
// into the registry under the scope.
func (s *Scope) Counter(name string, c *Counter) {
	if s == nil || c == nil {
		return
	}
	s.reg.register(instrument{name: s.full(name), kind: KindCounter, counter: c})
}

// NewCounter creates, registers, and returns a counter (nil when the
// scope is nil — safe to use unconditionally).
func (s *Scope) NewCounter(name string) *Counter {
	if s == nil {
		return nil
	}
	c := &Counter{}
	s.Counter(name, c)
	return c
}

// GaugeVar binds an existing gauge into the registry.
func (s *Scope) GaugeVar(name string, g *Gauge) {
	if s == nil || g == nil {
		return
	}
	s.reg.register(instrument{name: s.full(name), kind: KindGauge, gauge: g})
}

// GaugeFunc registers a gauge evaluated at snapshot time. fn must be
// deterministic for a given simulation state; it costs nothing until a
// snapshot is taken.
func (s *Scope) GaugeFunc(name string, fn func() int64) {
	if s == nil || fn == nil {
		return
	}
	s.reg.register(instrument{name: s.full(name), kind: KindGauge, gaugeFn: fn})
}

// Histogram creates, registers, and returns a histogram (nil when the
// scope is nil, making Observe free).
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	h := &Histogram{}
	s.reg.register(instrument{name: s.full(name), kind: KindHistogram, hist: h})
	return h
}

// Item is one instrument's value in a snapshot.
type Item struct {
	Name  string    `json:"name"`
	Kind  string    `json:"kind"`
	Value int64     `json:"value"`
	Hist  *HistView `json:"hist,omitempty"`
}

// Snapshot is the registry's state at one instant of virtual time,
// sorted by name. All renderings of a snapshot are byte-stable.
type Snapshot struct {
	At    time.Duration `json:"at_ns"`
	Items []Item        `json:"items"`
}

// Snapshot captures every instrument, sorted by name. at is the virtual
// time of the capture.
func (r *Registry) Snapshot(at time.Duration) Snapshot {
	if r == nil {
		return Snapshot{At: at}
	}
	s := Snapshot{At: at, Items: make([]Item, 0, len(r.items))}
	for _, ins := range r.items {
		it := Item{Name: ins.name, Kind: ins.kind.String()}
		switch ins.kind {
		case KindCounter:
			it.Value = int64(ins.counter.Value())
		case KindGauge:
			if ins.gaugeFn != nil {
				it.Value = ins.gaugeFn()
			} else {
				it.Value = ins.gauge.Value()
			}
		case KindHistogram:
			v := ins.hist.View()
			it.Hist = &v
			it.Value = int64(v.Count)
		}
		s.Items = append(s.Items, it)
	}
	sort.Slice(s.Items, func(i, j int) bool { return s.Items[i].Name < s.Items[j].Name })
	return s
}

// Delta returns cur minus prev for counters (and histogram counts);
// gauges pass through cur unchanged, since a level has no meaningful
// difference over an interval here.
func Delta(prev, cur Snapshot) Snapshot {
	prevBy := make(map[string]Item, len(prev.Items))
	for _, it := range prev.Items {
		prevBy[it.Name] = it
	}
	d := Snapshot{At: cur.At, Items: make([]Item, 0, len(cur.Items))}
	for _, it := range cur.Items {
		p, ok := prevBy[it.Name]
		if ok && it.Kind == KindCounter.String() {
			it.Value -= p.Value
		}
		if ok && it.Hist != nil && p.Hist != nil {
			h := *it.Hist
			h.Count -= p.Hist.Count
			h.Sum -= p.Hist.Sum
			it.Hist = &h
			it.Value = int64(h.Count)
		}
		d.Items = append(d.Items, it)
	}
	return d
}

// Sum adds the values of every item whose name ends in suffix — the
// cross-host aggregation helper ("how many TIME_WAIT sockets exist
// anywhere" is Sum(".tcp_state.time_wait")).
func (s Snapshot) Sum(suffix string) int64 {
	var total int64
	for _, it := range s.Items {
		if strings.HasSuffix(it.Name, suffix) {
			total += it.Value
		}
	}
	return total
}

// Get returns the item with the exact name, if present. Items are
// sorted by name, so the lookup is a binary search.
func (s Snapshot) Get(name string) (Item, bool) {
	i := sort.Search(len(s.Items), func(i int) bool { return s.Items[i].Name >= name })
	if i < len(s.Items) && s.Items[i].Name == name {
		return s.Items[i], true
	}
	return Item{}, false
}

// MergedHistogram merges every live histogram whose name ends in suffix
// into a fresh histogram (for cross-stack quantiles, e.g. connect
// latency over all hosts).
func (r *Registry) MergedHistogram(suffix string) *Histogram {
	if r == nil {
		return nil
	}
	out := &Histogram{}
	for _, ins := range r.items {
		if ins.kind == KindHistogram && strings.HasSuffix(ins.name, suffix) {
			out.Merge(ins.hist)
		}
	}
	return out
}
