// Command perfbench is the repository benchmark: it serves durable top-k
// workloads over loopback wire connections from one process and prints one
// JSON result line. Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload query_sharded --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports the per-layer ledger of a traced run (see README.md).
// Any failed correctness check makes the result "correct": false and the exit
// status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/wal"
)

// dataRows and dataSeed fix every workload's dataset: datagen.NBA(dataSeed,
// dataRows) projected to nba-2. The dataset is part of the workload's
// definition and does not follow --seed: NBA generations differ so much
// between seeds (64 latent player profiles) that per-seed data moved the
// query medians by more than any bound a regression check could use. The
// run seed drives every query, scorer and subscription instead.
const (
	dataRows = 60000
	dataSeed = 1
)

// attrNames names the two nba-2 columns for scoring expressions.
var attrNames = []string{"points", "assists"}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch space for stores and trace output
	rows     int    // dataset size; dataRows unless a test shrinks it

	// Fault hooks for the benchmark's own tests: each wraps the layer's
	// public surface so a test can prove the correctness gate fires.
	wrapQuerier func(core.Querier) core.Querier
	wrapFS      func(wal.FS) wal.FS
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates what a workload run observed.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// fail records a failed correctness check; any failure fails the run.
func (o *outcome) fail(format string, args ...interface{}) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	o.failed++
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

var workloads = map[string]func(cfg *config, o *outcome) error{
	"query_sharded": runQuerySharded,
	"ingest_wal":    runIngestWAL,
	"live_mixed":    runLiveMixed,
}

func main() {
	cfg := config{rows: dataRows}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "query_sharded | ingest_wal | live_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, 1: traced per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	res, err := run(&cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result line. An error means
// the benchmark could not run at all (no result is printed).
func run(cfg *config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir, err := os.MkdirTemp(mustMkdir(cfg.workdir), cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sub := *cfg
	sub.workdir = dir
	o := newOutcome()
	if err := fn(&sub, o); err != nil {
		return nil, err
	}
	if err := finish(o, cfg.trace); err != nil {
		return nil, err
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("workload attempted no operations")
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}, nil
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	return dir
}

// loadData generates the workload dataset: NBA box scores projected to
// (points, assists).
func loadData(rows int) (*data.Dataset, error) {
	return datagen.NBA(dataSeed, rows).Project(datagen.NBASubsets["nba-2"])
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg *config) string {
	return filepath.Join(filepath.Dir(cfg.workdir), fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
}
