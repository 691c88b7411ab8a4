package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// benchmarkFile mirrors the parts of BENCHMARK.json these tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smallConfig runs a workload on a tenth of the data for a short window.
func smallConfig(t *testing.T, workload string, traced bool) *config {
	return &config{workload: workload, seed: 3, seconds: 0.6, trace: traced, workdir: t.TempDir(), rows: dataRows / 10}
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestEmittedMetricsMatchBenchmarkFile runs every workload untraced and
// traced and checks that each emits exactly the metric names and units
// BENCHMARK.json declares, and passes its own correctness gate.
func TestEmittedMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %s", w.Name)
		}
	}
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			want := make(map[string]string)
			for _, m := range bf.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range bf.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(smallConfig(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d: %v", w, traced, len(res.Metrics), len(want), metricNames(res.Metrics))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s (%s) not declared as such", w, traced, name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, name, m.Value)
				}
			}
		}
	}
}

// TestTracedLedgerIsPopulated checks that the layers each workload
// exercises report work: WAL fsyncs and a full recovery on ingest_wal and
// live_mixed, direct shard-cost measurements and reconciled queries on
// query_sharded.
func TestTracedLedgerIsPopulated(t *testing.T) {
	res, err := run(smallConfig(t, "ingest_wal", true))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["wal.fsyncs_per_row"].Value; got <= 0 {
		t.Errorf("wal.fsyncs_per_row = %v", got)
	}
	if res.Metrics["store.restored_rows"].Value+res.Metrics["store.replayed_rows"].Value != dataRows/10 {
		t.Errorf("recovery restored %v + replayed %v rows", res.Metrics["store.restored_rows"].Value, res.Metrics["store.replayed_rows"].Value)
	}
	res, err = run(smallConfig(t, "live_mixed", true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wal.fsyncs_per_row", "e2e.recovery_ms", "store.restored_rows", "sub.events_per_append"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("live_mixed %s = %v", name, res.Metrics[name].Value)
		}
	}
	res, err = run(smallConfig(t, "query_sharded", true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.shard_cost_ratio", "core.unsharded_eval_p50_ms", "trace.reconciled_queries", "wire.query_overhead_ms"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
	}
}

// dropRecord is a faulty core.Querier: every fourth answer loses its last
// record.
type dropRecord struct {
	querierShim
	n atomic.Int64
}

func (d *dropRecord) DurableTopK(q core.Query) (*core.Result, error) {
	res, err := d.Querier.DurableTopK(q)
	if err == nil && len(res.Records) > 0 && d.n.Add(1)%4 == 0 {
		res.Records = res.Records[:len(res.Records)-1]
	}
	return res, err
}

func TestGateFailsOnDroppedRecord(t *testing.T) {
	for _, traced := range []bool{false, true} {
		cfg := smallConfig(t, "query_sharded", traced)
		cfg.wrapQuerier = func(q core.Querier) core.Querier { return &dropRecord{querierShim: querierShim{q}} }
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("traced=%v: a querier dropping records passed the gate (attempted %d)", traced, res.Attempted)
		}
	}
}

// loseWALWrite is a faulty wal.FS: the lose-th write to a WAL segment
// reports success without reaching the file.
type loseWALWrite struct {
	wal.FS
	lose   int64
	writes *atomic.Int64
}

type loseFile struct {
	wal.File
	fs *loseWALWrite
}

func (l *loseWALWrite) wrap(name string, f wal.File, err error) (wal.File, error) {
	if err != nil || !strings.HasSuffix(name, ".wal") {
		return f, err
	}
	return &loseFile{File: f, fs: l}, nil
}

func (l *loseWALWrite) Create(name string) (wal.File, error) {
	f, err := l.FS.Create(name)
	return l.wrap(name, f, err)
}

func (l *loseWALWrite) Open(name string) (wal.File, error) {
	f, err := l.FS.Open(name)
	return l.wrap(name, f, err)
}

func (f *loseFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.writes.Add(1) == f.fs.lose {
		return len(p), nil
	}
	return f.File.WriteAt(p, off)
}

func TestGateFailsOnLostWALWrite(t *testing.T) {
	cfg := smallConfig(t, "ingest_wal", false)
	var writes atomic.Int64
	// One write per appended row: losing one near the end hits the unsealed
	// tail, which only the WAL holds.
	cfg.wrapFS = func(fs wal.FS) wal.FS {
		return &loseWALWrite{FS: fs, lose: int64(cfg.rows - 50), writes: &writes}
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("a lost WAL write passed the gate (attempted %d, %d writes)", res.Attempted, writes.Load())
	}
}

func TestFrameScanner(t *testing.T) {
	var s frameScanner
	frame := func(n int) []byte { return append([]byte{0, 0, 0, byte(n)}, make([]byte, n)...) }
	stream := append(append(frame(3), frame(0)...), frame(5)...)
	var started, completed int
	for _, b := range stream { // byte by byte: the worst chunking
		st, c := s.feed([]byte{b})
		started += st
		completed += c
	}
	if started != 3 || completed != 3 {
		t.Fatalf("started %d completed %d, want 3 and 3", started, completed)
	}
	if st, c := s.feed(stream); st != 3 || c != 3 {
		t.Fatalf("one chunk: started %d completed %d", st, c)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail(xs); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := tail(xs[:100]); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90 (highest percentile with ten beyond)", got)
	}
	if got := tail(xs[:5]); got != 5 {
		t.Errorf("tail of 1..5 = %v, want the maximum", got)
	}
}
