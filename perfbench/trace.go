package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clockBase anchors every timestamp of a run: nowNS reads the monotonic
// clock, so spans recorded on different goroutines and layers compare
// exactly.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent names the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Key joins a span to its request when the layer cannot see the
	// request id: a query's interval start and canonical scorer, or an
	// appended row's timestamp.
	Key string `json:"key,omitempty"`
	Row int64  `json:"row,omitempty"`

	// Work counters of a core.DurableTopK span.
	Alg     string `json:"alg,omitempty"`
	Probes  int    `json:"probes,omitempty"`
	Visited int    `json:"visited,omitempty"`
	Pruned  int    `json:"pruned,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a phase's spans in memory; they are written out when the run
// ends.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// newID reserves a span id, for spans whose children start before they end.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record stores s, assigning an id unless one was reserved.
func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// drain returns the spans recorded since the last drain.
func (t *tracer) drain() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// maxWrittenSpans bounds each phase's spans in the written trace; a WAL
// round records three spans per row.
const maxWrittenSpans = 50000

// writeTrace writes every traced phase's spans as one JSON document.
func writeTrace(path string, doc map[string][]span) error {
	for phase, spans := range doc {
		if len(spans) > maxWrittenSpans {
			doc[phase] = spans[:maxWrittenSpans]
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the nearest-rank 50th percentile of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// tail returns the 99th percentile when at least ten samples lie beyond it,
// otherwise the highest percentile that has ten samples beyond it (the
// maximum when there are ten samples or fewer).
func tail(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - 11; i > lim {
		i = lim
	}
	if i < 0 {
		i = n - 1
	}
	return s[i]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
