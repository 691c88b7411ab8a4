package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports all
// of them; "op" is the workload's closed-loop operation: a query round trip
// on query_sharded and live_mixed, a 64-row append batch on ingest_wal
// (whose throughput counts rows). Tails, recovery and event latency swing
// with the shared host's disk by more than any usable bound, so they are
// reported by traced runs (the e2e.* views) instead of gated here.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// gmp1 suffixes the per-layer timings taken at GOMAXPROCS=1.
const gmp1 = ".gomaxprocs1"

// perLayer lists the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// End-to-end views too noisy to gate, from the traced run's untraced phase.
		{"e2e.query_p50_ms", "ms"}, {"e2e.query_p99_ms", "ms"}, {"e2e.query_qps", "1/s"}, {"e2e.cache_hit_p50_ms", "ms"},
		{"e2e.append_rows_per_s", "1/s"}, {"e2e.append_p50_ms", "ms"}, {"e2e.append_p99_ms", "ms"},
		{"e2e.event_p50_ms", "ms"}, {"e2e.event_p99_ms", "ms"},
		{"e2e.recovery_ms", "ms"}, {"e2e.disk_bytes_per_user_byte", "ratio"},

		{"wire.query_overhead_ms", "ms"}, {"wire.server_ms", "ms"}, {"wire.transit_ms", "ms"},
		{"wire.bytes_per_query", "B"}, {"wire.bytes_per_append_row", "B"}, {"wire.bytes_per_event", "B"},

		{"serve.cache_hit_ratio", "ratio"}, {"serve.cache_lookups", "count"},
		{"serve.admitted", "count"}, {"serve.rejected", "count"},

		{"core.eval_p50_ms", "ms"}, {"core.eval_p99_ms", "ms"},
		{"core.sharded_eval_p50_ms", "ms"}, {"core.unsharded_eval_p50_ms", "ms"}, {"core.shard_cost_ratio", "ratio"},
		{"core.topk_probes_per_query", "count"}, {"core.visited_per_query", "count"}, {"core.shards_pruned_per_query", "count"},
		{"core.allocs_per_query", "count"}, {"core.bytes_per_query", "B"},
		{"core.seals", "count"}, {"core.compactions", "count"}, {"core.live_shards", "count"}, {"core.indexed_rows_per_append", "count"},

		{"planner.explain_us", "us"},

		{"store.append_us_per_row", "us"}, {"store.append_self_us_per_row", "us"},
		{"store.checkpoints", "count"}, {"store.page_bytes_per_row", "B"}, {"store.write_amp", "ratio"},
		{"store.restored_rows", "count"}, {"store.replayed_rows", "count"}, {"store.recovery_read_bytes", "B"},

		{"wal.fsyncs_per_row", "count"}, {"wal.fsync_p50_us", "us"}, {"wal.fsync_p99_us", "us"},
		{"wal.fsync_share", "ratio"}, {"wal.bytes_per_row", "B"},

		{"sub.events_per_append", "count"}, {"sub.groups", "count"}, {"sub.event_after_ack_ms", "ms"},
		{"sub.dropped", "count"}, {"sub.evicted", "count"},

		{"loadgen.late_ms", "ms"},
		{"trace.op_p50_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
		{"trace.reconciled_queries", "count"}, {"trace.spans", "count"},
	}
	for _, a := range core.Algorithms() {
		defs = append(defs, metricDef{"planner.share." + a.String(), "ratio"})
	}
	for _, d := range []metricDef{
		{"trace.op_p50_ms", "ms"}, {"wire.query_overhead_ms", "ms"},
		{"core.eval_p50_ms", "ms"}, {"core.eval_p99_ms", "ms"},
		{"store.append_us_per_row", "us"}, {"store.append_self_us_per_row", "us"},
		{"wal.fsync_p50_us", "us"}, {"sub.event_after_ack_ms", "ms"},
	} {
		defs = append(defs, metricDef{d.name + gmp1, d.unit})
	}
	return defs
}()

// finish checks the reported metrics against the run mode's list: every
// end-to-end metric must have been measured, and layers a workload does not
// exercise default to 0.
func finish(o *outcome, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
		delete(o.metrics, "setup_s") // measured by every run, reported by untraced ones
	}
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		want[d.name] = true
		m, ok := o.metrics[d.name]
		switch {
		case !ok && traced:
			o.metrics[d.name] = metric{Value: 0, Unit: d.unit}
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	for name := range o.metrics {
		if !want[name] {
			return fmt.Errorf("metric %s is not in this mode's list", name)
		}
	}
	return nil
}

// phase is one measured window of a run. An untraced run has one phase; a
// traced run measures an untraced quarter (the tracing-overhead baseline
// and the e2e.* views), a traced half at GOMAXPROCS=nproc and a traced
// quarter at GOMAXPROCS=1.
type phase struct {
	name    string
	procs   int
	seconds float64
	tr      *tracer
	suffix  string // metric-name suffix of the phase's per-layer timings
}

const (
	phaseE2E      = "e2e"
	phaseBaseline = "untraced"
	phaseTraced   = "traced"
	phaseOneProc  = "gomaxprocs1"
)

func phasesFor(cfg *config) []phase {
	n := runtime.NumCPU()
	if !cfg.trace {
		return []phase{{name: phaseE2E, procs: n, seconds: cfg.seconds}}
	}
	return []phase{
		{name: phaseBaseline, procs: n, seconds: cfg.seconds / 4},
		{name: phaseTraced, procs: n, seconds: cfg.seconds / 2, tr: &tracer{}},
		{name: phaseOneProc, procs: 1, seconds: cfg.seconds / 4, tr: &tracer{}, suffix: gmp1},
	}
}

// enter applies a phase's GOMAXPROCS and returns its deadline.
func (p phase) enter() (start, deadline int64) {
	runtime.GOMAXPROCS(p.procs)
	start = nowNS()
	return start, start + int64(p.seconds*1e9)
}

// leave restores GOMAXPROCS to the core count.
func (p phase) leave() { runtime.GOMAXPROCS(runtime.NumCPU()) }

// setupRepeats is how many times a run builds its serving state; setup_s is
// the median.
const setupRepeats = 7

// repeatSetup builds the serving state setupRepeats times, keeps the last
// and closes the others.
func repeatSetup[T interface{ close() }](o *outcome, build func() (T, error)) (T, error) {
	var (
		keep  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := nowNS()
		st, err := build()
		if err != nil {
			return keep, err
		}
		times = append(times, float64(nowNS()-t0)/1e9)
		if i+1 < setupRepeats {
			st.close()
		} else {
			keep = st
		}
	}
	o.set("setup_s", "s", median(times))
	return keep, nil
}
