package obs

// A small metrics registry — counters, gauges, fixed-bucket histograms —
// exposed in Prometheus text exposition format and snapshot-able into a
// flat name→value map. Instruments are lock-free atomics; registration
// is a get-or-create under one mutex, expected once per run, reads and
// writes at run time.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by d (d < 0 is ignored: counters are
// monotonic by contract).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable integer metric.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket[i] counts observations ≤ bounds[i], plus an
// implicit +Inf bucket).
type Histogram struct {
	name, help string
	bounds     []float64
	buckets    []atomic.Int64 // len(bounds)+1; last is +Inf
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits of the running sum
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry holds registered instruments and renders them in Prometheus
// text exposition format. Registration order is preserved in the
// output, so exposition is stable across runs. A nil *Registry hands
// out nil instruments, which are valid no-op sinks.
type Registry struct {
	mu     sync.Mutex
	byName map[string]any // *Counter | *Gauge | *Histogram
	order  []any          // the same instruments, in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]any{}}
}

// instrument returns the instrument registered under name, registering
// the one mk builds when there is none: a long-lived registry meets the
// same instrumented package once per run (a daemon builds an analyzer
// per ingest). A name already taken by another kind of instrument is a
// programming error.
func instrument[T any](r *Registry, name string, mk func() *T) *T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.byName[name]; ok {
		inst, ok := have.(*T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %s is already registered as a %T", name, have))
		}
		return inst
	}
	inst := mk()
	r.byName[name] = inst
	r.order = append(r.order, inst)
	return inst
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return instrument(r, name, func() *Counter { return &Counter{name: name, help: help} })
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return instrument(r, name, func() *Gauge { return &Gauge{name: name, help: help} })
}

// Histogram returns the fixed-bucket histogram registered under name,
// creating it on first use. Bounds must be sorted ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted: " + name)
	}
	return instrument(r, name, func() *Histogram {
		return &Histogram{name: name, help: help, bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	})
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]any(nil), r.order...)
	r.mu.Unlock()
	for _, inst := range order {
		switch m := inst.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				m.name, m.help, m.name, m.name, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				m.name, m.help, m.name, m.name, m.Value()); err != nil {
				return err
			}
		case *Histogram:
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", m.name, m.help, m.name); err != nil {
				return err
			}
			cum := int64(0)
			for i, b := range m.bounds {
				cum += m.buckets[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.name, formatFloat(b), cum); err != nil {
					return err
				}
			}
			cum += m.buckets[len(m.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				m.name, cum, m.name, formatFloat(m.Sum()), m.name, m.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot flattens every instrument into a name→value map: counters
// and gauges under their own name, histograms as name_count, name_sum,
// and cumulative name_bucket{le="..."} entries.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	order := append([]any(nil), r.order...)
	r.mu.Unlock()
	out := make(map[string]float64, len(order))
	for _, inst := range order {
		switch m := inst.(type) {
		case *Counter:
			out[m.name] = float64(m.Value())
		case *Gauge:
			out[m.name] = float64(m.Value())
		case *Histogram:
			cum := int64(0)
			for i, b := range m.bounds {
				cum += m.buckets[i].Load()
				out[fmt.Sprintf("%s_bucket{le=%q}", m.name, formatFloat(b))] = float64(cum)
			}
			out[m.name+"_count"] = float64(m.Count())
			out[m.name+"_sum"] = m.Sum()
		}
	}
	return out
}
