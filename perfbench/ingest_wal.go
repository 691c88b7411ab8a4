package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/data"
	"repro/internal/wire"
)

// ingest_wal: one connection appends the whole dataset in time order into an
// empty store as ingestBatch-row batches, closed loop; the store is then
// closed and recovered. A phase repeats such rounds, each on a fresh store,
// until its time is up.
const (
	ingestBatch = 64
	recoveries  = 5 // per round; e2e.recovery_ms is their median
)

type ingestState struct {
	ds     *data.Dataset
	ss     *servedStore
	client *wire.Client
}

func setupIngest(cfg *config, dir string) (*ingestState, error) {
	ds, err := loadData(cfg.rows)
	if err != nil {
		return nil, err
	}
	ss, err := openServed(cfg, dir, ds, 0)
	if err != nil {
		return nil, err
	}
	client, _, err := ss.srv.dial()
	if err != nil {
		ss.close()
		return nil, err
	}
	return &ingestState{ds: ds, ss: ss, client: client}, nil
}

// close discards a state that never ran a round.
func (st *ingestState) close() {
	st.client.Close()
	if err := st.ss.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	removeDir(st.ss.dir)
}

// ingestRound is what one round measured.
type ingestRound struct {
	lat    []float64 // per batch, ms
	rows   int
	wall   float64 // seconds spent appending
	rec    recovery
	io     ioDelta
	fsyncs []float64
	spans  []span
	wireIn int64
	c0, c1 engineCounters
}

func runIngestWAL(cfg *config, o *outcome) error {
	var rounds int
	newDir := func() string {
		rounds++
		return filepath.Join(cfg.workdir, fmt.Sprintf("store-%d", rounds))
	}
	st, err := repeatSetup(o, func() (*ingestState, error) { return setupIngest(cfg, newDir()) })
	if err != nil {
		return err
	}
	batches := make([][]wire.IngestRow, 0, st.ds.Len()/ingestBatch+1)
	for lo := 0; lo < st.ds.Len(); lo += ingestBatch {
		batches = append(batches, rowsOf(st.ds, lo, min(lo+ingestBatch, st.ds.Len())))
	}
	doc := make(map[string][]span)
	var baseP50 float64
	for _, ph := range phasesFor(cfg) {
		var rs []ingestRound
		_, deadline := ph.enter()
		for len(rs) == 0 || nowNS() < deadline {
			if st == nil {
				if st, err = setupIngest(cfg, newDir()); err != nil {
					ph.leave()
					return err
				}
			}
			r, err := runIngestRound(cfg, st, batches, ph, o)
			st = nil
			if err != nil {
				ph.leave()
				return err
			}
			rs = append(rs, r)
		}
		ph.leave()
		reportIngestPhase(o, ph, rs, &baseP50, doc)
	}
	if cfg.trace {
		return writeTrace(traceFile(cfg), doc)
	}
	return nil
}

// runIngestRound appends every batch, closes the store, measures it on disk
// and recovers it, checking that exactly the acknowledged rows come back.
func runIngestRound(cfg *config, st *ingestState, batches [][]wire.IngestRow, ph phase, o *outcome) (ingestRound, error) {
	ss := st.ss
	defer removeDir(ss.dir)
	var r ingestRound
	var io0 ioDelta
	if ss.fs != nil {
		io0 = ss.fs.snapshot()
		r.wireIn, _ = ss.srv.ln.bytes()
	}
	r.c0 = countersOf(ss.st)
	ss.setTracer(ph.tr)
	var client []span
	start := nowNS()
	for b, rows := range batches {
		o.attempted++
		t0 := nowNS()
		resp, err := st.client.Append(datasetName, rows)
		t1 := nowNS()
		if err != nil || resp.Appended != len(rows) {
			o.fail("append batch %d: %v", b, err)
			break
		}
		r.rows += len(rows)
		r.lat = append(r.lat, ms(t1-t0))
		if ph.tr != nil {
			client = append(client, span{ID: ph.tr.newID(), Req: int64(b + 1), Name: "client.Append", Start: t0, End: t1})
		}
	}
	r.wall = float64(nowNS()-start) / 1e9
	ss.setTracer(nil)
	ss.st.Engine().WaitCompacted()
	ss.st.Engine().WaitSealed()
	ss.st.WaitCheckpoints()
	r.c1 = countersOf(ss.st)
	if ss.fs != nil {
		r.io = diffIO(io0, ss.fs.snapshot())
		r.fsyncs = ss.fs.takeFsyncs()
		in, _ := ss.srv.ln.bytes()
		r.wireIn = in - r.wireIn
	}
	if ph.tr != nil {
		r.spans = linkAppendSpans(ph.tr.drain(), client, func(t int64) int { return st.ds.LowerBound(t) / ingestBatch }, o)
	}
	st.client.Close()
	err := ss.close()
	if err != nil {
		return r, err
	}
	r.rec, err = recoverStore(cfg, ss.dir, st.ds, r.rows, recoveries, ss.fs, o)
	return r, err
}

// linkAppendSpans parents each store.Append span under the client batch
// that carried its row (rows have unique times) and its WAL I/O under it,
// failing any append that does not nest inside its batch's client span.
func linkAppendSpans(spans, client []span, batchOf func(rowTime int64) int, o *outcome) []span {
	req := make(map[int64]int64)
	for i := range spans {
		s := &spans[i]
		if s.Name != "store.Append" {
			continue
		}
		b := batchOf(s.Row)
		if b < 0 || b >= len(client) || s.Start < client[b].Start || s.End > client[b].End {
			o.attempted++
			o.fail("store.Append of row time %d does not nest in its batch's client span", s.Row)
			continue
		}
		s.Parent, s.Req = client[b].ID, client[b].Req
		req[s.ID] = s.Req
	}
	for i := range spans {
		if spans[i].Parent != 0 && spans[i].Req == 0 {
			spans[i].Req = req[spans[i].Parent]
		}
	}
	return append(client, spans...)
}

func reportIngestPhase(o *outcome, ph phase, rs []ingestRound, baseP50 *float64, doc map[string][]span) {
	var p50s, p99s, rates, rec, disk, fsyncs []float64
	var rows int
	var wall float64
	var io ioDelta
	var spans []span
	var wireIn int64
	for _, r := range rs {
		p50s = append(p50s, median(r.lat))
		p99s = append(p99s, tail(r.lat))
		rates = append(rates, ratio(float64(r.rows), r.wall))
		rec = append(rec, r.rec.ms...)
		disk = append(disk, r.rec.diskRatio)
		fsyncs = append(fsyncs, r.fsyncs...)
		spans = append(spans, r.spans...)
		rows += r.rows
		wall += r.wall
		wireIn += r.wireIn
		for c := range io {
			for k := range io[c] {
				io[c][k] += r.io[c][k]
			}
		}
	}
	// Medians over rounds, so one round on a slow stretch of the shared disk
	// moves them less. The tail too: a round's p99 lands among the batches
	// that met a seal's or compaction's page fsyncs (about 2% of them), so a
	// single round of disk stalls would otherwise swing it.
	p50, p99, rate := median(p50s), median(p99s), median(rates)
	switch ph.name {
	case phaseE2E:
		o.set("op_p50_ms", "ms", p50)
		o.set("throughput_per_s", "1/s", rate)
		return
	case phaseBaseline:
		*baseP50 = p50
		o.set("e2e.append_rows_per_s", "1/s", rate)
		o.set("e2e.append_p50_ms", "ms", p50)
		o.set("e2e.append_p99_ms", "ms", p99)
		o.set("e2e.recovery_ms", "ms", median(rec))
		o.set("e2e.disk_bytes_per_user_byte", "ratio", median(disk))
		return
	}
	doc[ph.name] = spans
	o.set("trace.op_p50_ms"+ph.suffix, "ms", p50)
	setWALLedger(o, io, fsyncs, spans, rows, wall, ph.suffix)
	if ph.name != phaseTraced {
		return
	}
	last := rs[len(rs)-1]
	o.set("trace.overhead_ratio", "ratio", ratio(p50, *baseP50))
	o.set("trace.spans", "count", float64(len(spans)))
	o.set("wire.bytes_per_append_row", "B", ratio(float64(wireIn), float64(rows)))
	setLifecycle(o, last.c0, last.c1, last.rows)
	o.set("store.restored_rows", "count", float64(last.rec.stats.RestoredRows))
	o.set("store.replayed_rows", "count", float64(last.rec.stats.ReplayedRows))
	o.set("store.recovery_read_bytes", "B", float64(last.rec.readBytes))
}
