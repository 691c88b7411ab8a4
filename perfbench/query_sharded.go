package main

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/wire"
)

// query_sharded: a static engine over count-partitioned time shards, read by
// a closed loop of queryConns connections. One query in hotEvery comes from a
// fixed pool that fits the result cache; the rest have fresh scorers and
// always miss it.
const (
	queryShards   = 8
	queryConns    = 2
	hotPoolSize   = 64
	hotEvery      = 4
	sampleEvery   = 8  // every 8th unique query is checked against a batch engine
	warmupSeconds = 2  // ~1000 queries: runs repeat closely only after them
	directQueries = 60 // per engine, for the traced direct-evaluation metrics
)

type queryShardedState struct {
	ds      *data.Dataset
	eng     *core.ShardedEngine
	traced  *tracedQuerier // nil when untraced
	srv     *server
	clients []*queryClient
}

func setupQuerySharded(cfg *config) (*queryShardedState, error) {
	ds, err := loadData(cfg.rows)
	if err != nil {
		return nil, err
	}
	st := &queryShardedState{ds: ds, eng: core.NewShardedEngine(ds, core.Options{}, core.ShardOptions{Shards: queryShards})}
	var q core.Querier = st.eng
	if cfg.wrapQuerier != nil {
		q = cfg.wrapQuerier(q)
	}
	if cfg.trace {
		st.traced = &tracedQuerier{querierShim: querierShim{q}}
		q = st.traced
	}
	if st.srv, err = startServer(cfg.trace); err != nil {
		return nil, err
	}
	if err := st.srv.srv.AddQuerier(datasetName, q, attrNames); err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < queryConns; i++ {
		c, addr, err := st.srv.dial()
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, &queryClient{c: c, addr: addr, sent: 1})
	}
	return st, nil
}

func (st *queryShardedState) close() {
	for _, qc := range st.clients {
		qc.c.Close()
	}
	st.srv.close()
}

func (st *queryShardedState) setTracer(tr *tracer) {
	if st.traced != nil {
		st.traced.tr.Store(tr)
		st.srv.ln.tr.Store(tr)
	}
}

func runQuerySharded(cfg *config, o *outcome) error {
	st, err := repeatSetup(o, func() (*queryShardedState, error) { return setupQuerySharded(cfg) })
	if err != nil {
		return err
	}
	defer st.close()
	ref := core.NewEngine(st.ds, core.Options{})
	t0, t1 := st.ds.Span()

	hotGen := newQueryGen(cfg.seed*7 + 1)
	hot := make([]draw, hotPoolSize)
	for i := range hot {
		req := hotGen.window(t0, t1)
		want, err := referenceIDs(ref, req)
		if err != nil {
			return err
		}
		hot[i] = draw{req: &req, want: want}
	}
	gens := make([]*queryGen, queryConns)
	drawn := make([]int, queryConns)
	for i := range gens {
		gens[i] = newQueryGen(cfg.seed*7 + 2 + int64(i))
	}
	next := func(i int) draw {
		g := gens[i]
		if g.rng.Intn(hotEvery) == 0 {
			return hot[g.rng.Intn(hotPoolSize)]
		}
		drawn[i]++
		req := g.window(t0, t1)
		return draw{req: &req, keep: drawn[i]%sampleEvery == 0}
	}

	all := flatten(closedLoop(st.clients, nowNS()+warmupSeconds*1e9, false, next))
	doc := make(map[string][]span)
	var baseP50 float64
	for _, ph := range phasesFor(cfg) {
		cache0, sched0 := st.srv.cache.Stats(), st.srv.sched.Metrics()
		var in0, out0 int64
		if st.srv.ln != nil {
			in0, out0 = st.srv.ln.bytes()
		}
		st.setTracer(ph.tr)
		start, deadline := ph.enter()
		ops := flatten(closedLoop(st.clients, deadline, ph.tr != nil, next))
		wall := float64(nowNS()-start) / 1e9
		ph.leave()
		st.setTracer(nil)
		all = append(all, ops...)
		sum := summarizeQueries(ops, start, wall)

		switch ph.name {
		case phaseE2E:
			o.set("op_p50_ms", "ms", sum.p50)
			o.set("throughput_per_s", "1/s", sum.qps)
		case phaseBaseline:
			baseP50 = sum.p50
			o.set("e2e.query_p50_ms", "ms", sum.p50)
			o.set("e2e.query_p99_ms", "ms", sum.p99)
			o.set("e2e.query_qps", "1/s", sum.qps)
			o.set("e2e.cache_hit_p50_ms", "ms", sum.hotP50)
		default:
			l := reconcileQueries(ops, ph.tr.drain(), ph.tr, st.srv.ln, st.clients, o)
			doc[ph.name] = l.spans
			o.set("trace.op_p50_ms"+ph.suffix, "ms", sum.p50)
			setQueryLedger(o, l, ph.suffix)
			if ph.name != phaseTraced {
				continue
			}
			o.set("trace.overhead_ratio", "ratio", ratio(sum.p50, baseP50))
			o.set("trace.spans", "count", float64(len(l.spans)))
			cache1, sched1 := st.srv.cache.Stats(), st.srv.sched.Metrics()
			hits, lookups := cache1.Hits-cache0.Hits, cache1.Hits+cache1.Misses-cache0.Hits-cache0.Misses
			o.set("serve.cache_hit_ratio", "ratio", ratio(float64(hits), float64(lookups)))
			o.set("serve.cache_lookups", "count", float64(lookups))
			o.set("serve.admitted", "count", float64(sched1.Admitted-sched0.Admitted))
			o.set("serve.rejected", "count", float64(sched1.Rejected-sched0.Rejected))
			in1, out1 := st.srv.ln.bytes()
			o.set("wire.bytes_per_query", "B", ratio(float64(in1-in0+out1-out0), float64(len(ops))))
			o.set("core.live_shards", "count", float64(st.eng.NumShards()))
		}
	}
	if cfg.trace {
		g := newQueryGen(cfg.seed*7 + 99)
		directCore(st.eng, ref, func() wire.Request { return g.window(t0, t1) }, directQueries, o)
		if err := writeTrace(traceFile(cfg), doc); err != nil {
			return err
		}
	}
	countFailures(all, o)
	verifySamples(all, ref, o)
	return nil
}
