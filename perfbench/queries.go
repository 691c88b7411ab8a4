package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/wire"
)

func scorerOf(w []float64) (score.Scorer, error) { return score.NewLinear(w) }

// queryClient is one closed-loop connection.
type queryClient struct {
	c    *wire.Client
	addr string // client-side local address
	sent int    // requests sent on this connection so far, the dial's ping included
}

// queryOp is one query as its client saw it. Ops stay small: a run keeps
// every one, and a benchmark heap that grows over the run would shift the
// server's GC pacing under the measurement.
type queryOp struct {
	conn, seq  int // connection, and request index on it
	start, end int64
	hot        bool
	wrong      bool          // a hot-pool answer differed from its reference
	req        *wire.Request // kept for sampled ops, and for every op while traced
	ids        []int         // response ids of sampled ops
	err        error
}

func (op queryOp) latencyMS() float64 { return ms(op.end - op.start) }

// draw is one request from a load generator. want, when set, is the answer
// the response must equal (hot-pool entries, checked as they arrive); keep
// samples the request for a check against a batch engine after the run.
type draw struct {
	req  *wire.Request
	want []int
	keep bool
}

// nextQuery draws client i's next request.
type nextQuery func(i int) draw

// closedLoop runs every client until the deadline, each sending its next
// request only after the previous response arrived. keepReqs keeps every
// request (the traced join needs them).
func closedLoop(clients []*queryClient, deadline int64, keepReqs bool, next nextQuery) [][]queryOp {
	out := make([][]queryOp, len(clients))
	var wg sync.WaitGroup
	for i, qc := range clients {
		wg.Add(1)
		go func(i int, qc *queryClient) {
			defer wg.Done()
			for nowNS() < deadline {
				d := next(i)
				op := queryOp{conn: i, seq: qc.sent, hot: d.want != nil}
				if d.keep || keepReqs {
					op.req = d.req
				}
				op.start = nowNS()
				recs, _, err := qc.c.Query(*d.req)
				op.end = nowNS()
				qc.sent++
				op.err = err
				if err == nil {
					if d.want != nil {
						op.wrong = !sameIDs(recordIDs(recs), d.want)
					}
					if d.keep {
						op.ids = recordIDs(recs)
					}
				}
				out[i] = append(out[i], op)
			}
		}(i, qc)
	}
	wg.Wait()
	return out
}

func flatten(per [][]queryOp) []queryOp {
	var all []queryOp
	for _, ops := range per {
		all = append(all, ops...)
	}
	return all
}

// querySummary is the end-to-end view of a phase of queries. The median and
// the tail are medians over the phase's sub-windows, so a stall or burst of
// the shared host that spans a few seconds moves them less; the rate is over
// the whole phase.
type querySummary struct {
	p50, p99, qps float64
	hotP50        float64
}

// subWindows is how many equal slices a phase is cut into for the medians.
const subWindows = 8

// windowOf returns the sub-window of [start, start+wall seconds) that the
// instant at falls in.
func windowOf(at, start int64, wall float64) int {
	i := int(float64(at-start) / (wall * 1e9) * subWindows)
	return min(max(i, 0), subWindows-1)
}

// byWindow splits ops into sub-windows by start time.
func byWindow(ops []queryOp, start int64, wall float64) [][]queryOp {
	w := make([][]queryOp, subWindows)
	for _, op := range ops {
		i := windowOf(op.start, start, wall)
		w[i] = append(w[i], op)
	}
	return w
}

func summarizeQueries(ops []queryOp, start int64, wall float64) querySummary {
	var n int
	var p50s, p99s, hots []float64
	for _, w := range byWindow(ops, start, wall) {
		var lat, hot []float64
		for _, op := range w {
			if op.err != nil {
				continue
			}
			lat = append(lat, op.latencyMS())
			if op.hot {
				hot = append(hot, op.latencyMS())
			}
		}
		n += len(lat)
		p50s = append(p50s, median(lat))
		p99s = append(p99s, tail(lat))
		hots = append(hots, median(hot))
	}
	return querySummary{p50: median(p50s), p99: median(p99s), qps: float64(n) / wall, hotP50: median(hots)}
}

// queryLedger is the traced per-layer view of a phase of queries.
type queryLedger struct {
	evals                       []float64 // core.DurableTopK durations, ms
	overhead, serverMS, transit []float64
	probes, visited, pruned     float64 // per evaluation
	algs                        map[string]int
	reconciled                  int
	spans                       []span
}

// reconcileQueries joins each unique query's client span to its
// core.DurableTopK span (by interval start and scorer) and to the server
// end of its connection (by frame order), and checks that the three nest:
//
//	client send <= server read done <= core start <= core end
//	            <= server write start <= client receive
//
// Every timestamp comes from one monotonic clock and each pair is causally
// ordered, so the tolerance is zero. The wire overhead (client span minus
// core span) then splits exactly into server-side wire time (decode,
// admission, cache, encode) and transit (client codec plus loopback).
func reconcileQueries(ops []queryOp, spans []span, tr *tracer, ln *meteredListener, clients []*queryClient, o *outcome) queryLedger {
	var coreSpans []span
	for _, s := range spans {
		if s.Name == coreSpanName {
			coreSpans = append(coreSpans, s)
		}
	}
	l := queryLedger{algs: make(map[string]int)}
	byKey := make(map[string][]span, len(coreSpans))
	for _, s := range coreSpans {
		byKey[s.Key] = append(byKey[s.Key], s)
		l.evals = append(l.evals, ms(s.dur()))
		l.probes += float64(s.Probes)
		l.visited += float64(s.Visited)
		l.pruned += float64(s.Pruned)
		l.algs[s.Alg]++
	}
	if n := float64(len(coreSpans)); n > 0 {
		l.probes, l.visited, l.pruned = l.probes/n, l.visited/n, l.pruned/n
	}
	frames := make([][2][]int64, len(clients))
	for i, qc := range clients {
		if sc := ln.conn(qc.addr); sc != nil {
			rd, wf := sc.frames()
			frames[i] = [2][]int64{rd, wf}
		}
	}
	linked := make(map[int64]bool)
	var req int64
	for _, op := range ops {
		if op.hot || op.err != nil {
			continue
		}
		o.attempted++
		req++
		sc, err := scorerOf(op.req.Weights)
		if err != nil {
			o.fail("query %d/%d: %v", op.conn, op.seq, err)
			continue
		}
		cs := byKey[queryKey(op.req.Start, sc)]
		if len(cs) != 1 {
			o.fail("query %d/%d: %d core spans for a unique query", op.conn, op.seq, len(cs))
			continue
		}
		rd, wf := frames[op.conn][0], frames[op.conn][1]
		if op.seq >= len(rd) || op.seq >= len(wf) {
			o.fail("query %d/%d: server saw %d requests, %d responses", op.conn, op.seq, len(rd), len(wf))
			continue
		}
		c, r, w := cs[0], rd[op.seq], wf[op.seq]
		if !(op.start <= r && r <= c.Start && c.End <= w && w <= op.end) {
			o.fail("query %d/%d: spans do not nest (client %d..%d, server %d..%d, core %d..%d)",
				op.conn, op.seq, op.start, op.end, r, w, c.Start, c.End)
			continue
		}
		l.reconciled++
		l.overhead = append(l.overhead, ms(op.end-op.start-c.dur()))
		l.serverMS = append(l.serverMS, ms(w-r-c.dur()))
		l.transit = append(l.transit, ms(op.end-op.start-(w-r)))
		root, srv := tr.newID(), tr.newID()
		linked[c.ID] = true
		c.Parent, c.Req = srv, req
		l.spans = append(l.spans,
			span{ID: root, Req: req, Name: "client.Query", Start: op.start, End: op.end},
			span{ID: srv, Parent: root, Req: req, Name: "wire.server", Start: r, End: w},
			c)
	}
	for _, s := range coreSpans {
		if !linked[s.ID] {
			l.spans = append(l.spans, s) // hot-pool misses and other unlinked evaluations
		}
	}
	return l
}

// directCore times single-goroutine evaluations outside the server: the
// served engine against one unsharded core.Engine over the same rows, on
// fresh queries from the workload's generator (fresh scorers, so no cache
// can answer them), plus allocation counts and planner time.
func directCore(served, batch core.Querier, gen func() wire.Request, n int, o *outcome) {
	queries := make([]core.Query, 2*n)
	for i := range queries {
		q, err := coreQuery(gen())
		if err != nil {
			o.fail("direct query: %v", err)
			return
		}
		queries[i] = q
	}
	timed, counted := queries[:n], queries[n:]
	timeAll := func(eng core.Querier) []float64 {
		out := make([]float64, 0, n)
		for _, q := range timed {
			t0 := time.Now()
			if _, err := eng.DurableTopK(q); err != nil {
				o.fail("direct query: %v", err)
			}
			out = append(out, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return out
	}
	sharded := median(timeAll(served))
	unsharded := median(timeAll(batch))
	o.set("core.sharded_eval_p50_ms", "ms", sharded)
	o.set("core.unsharded_eval_p50_ms", "ms", unsharded)
	o.set("core.shard_cost_ratio", "ratio", ratio(sharded, unsharded))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, q := range counted {
		if _, err := served.DurableTopK(q); err != nil {
			o.fail("direct query: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	o.set("core.allocs_per_query", "count", float64(after.Mallocs-before.Mallocs)/float64(n))
	o.set("core.bytes_per_query", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(n))

	explain := make([]float64, 0, n)
	for _, q := range timed {
		t0 := time.Now()
		if _, err := served.Explain(q); err != nil {
			o.fail("explain: %v", err)
		}
		explain = append(explain, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	o.set("planner.explain_us", "us", median(explain))
}

// setQueryLedger reports a phase's traced query metrics; suffix marks the
// GOMAXPROCS=1 twins.
func setQueryLedger(o *outcome, l queryLedger, suffix string) {
	o.set("wire.query_overhead_ms"+suffix, "ms", median(l.overhead))
	o.set("core.eval_p50_ms"+suffix, "ms", median(l.evals))
	o.set("core.eval_p99_ms"+suffix, "ms", tail(l.evals))
	if suffix != "" {
		return
	}
	o.set("wire.server_ms", "ms", median(l.serverMS))
	o.set("wire.transit_ms", "ms", median(l.transit))
	o.set("core.topk_probes_per_query", "count", l.probes)
	o.set("core.visited_per_query", "count", l.visited)
	o.set("core.shards_pruned_per_query", "count", l.pruned)
	o.set("trace.reconciled_queries", "count", float64(l.reconciled))
	total := 0
	for _, n := range l.algs {
		total += n
	}
	for _, a := range core.Algorithms() {
		o.set("planner.share."+a.String(), "ratio", ratio(float64(l.algs[a.String()]), float64(total)))
	}
}

// verifySamples charges the hot-pool checks made as responses arrived and
// checks the sampled responses against a batch engine.
func verifySamples(ops []queryOp, ref core.Querier, o *outcome) {
	for _, op := range ops {
		switch {
		case op.err != nil:
		case op.hot:
			o.attempted++
			if op.wrong {
				o.fail("query %d/%d: hot-pool answer differs from the batch engine", op.conn, op.seq)
			}
		case op.ids != nil:
			o.attempted++
			want, err := referenceIDs(ref, *op.req)
			if err != nil {
				o.fail("reference query: %v", err)
			} else if !sameIDs(op.ids, want) {
				o.fail("query %d/%d: got %d ids, reference %d", op.conn, op.seq, len(op.ids), len(want))
			}
		}
	}
}

// countFailures charges failed operations.
func countFailures(ops []queryOp, o *outcome) {
	for _, op := range ops {
		o.attempted++
		if op.err != nil {
			o.fail("query %d/%d: %v", op.conn, op.seq, op.err)
		}
	}
}
