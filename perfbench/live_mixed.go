package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/wire"
)

// live_mixed: a store preloaded with livePreload rows serves two
// connections at once. Connection A is a v2 session holding liveSubs
// standing subscriptions with distinct scorers, plus an open-loop appender
// sending liveBatch rows every liveInterval. Connection B is a closed-loop
// query client with fresh scorers over the most recent rows: a window of
// liveRecent of the preloaded span, sliding with the appends. Window and τ
// are shares of the preloaded span, not of the growing one, so the query
// cost stays level over a run instead of rising with the data.
const (
	livePreload       = 30000
	liveSubs          = 16
	liveBatch         = 16
	liveInterval      = 20 * time.Millisecond
	liveRecent        = 0.25
	liveWarmupSeconds = 1
	liveRecoveries    = 3
	eventWait         = 10 * time.Second // how long a phase waits for its last events
)

// subTrack consumes one subscription's events, recording when the event for
// each prefix arrived and whether the stream stayed contiguous.
type subTrack struct {
	s    *wire.Subscription
	base int
	done chan struct{}

	mu      sync.Mutex
	recv    []int64 // arrival of the event for prefix base+1+i
	seq     uint64
	bad     string
	evicted int
}

func (t *subTrack) consume() {
	defer close(t.done)
	for ev := range t.s.Events() {
		at := nowNS()
		t.mu.Lock()
		switch want := t.base + len(t.recv) + 1; {
		case ev.Event == wire.EventEvicted:
			t.evicted++
		case t.bad != "":
		case ev.Prefix != want || ev.Seq != t.seq+1:
			t.bad = fmt.Sprintf("event prefix %d seq %d, want prefix %d seq %d", ev.Prefix, ev.Seq, want, t.seq+1)
		default:
			t.recv = append(t.recv, at)
			t.seq = ev.Seq
		}
		t.mu.Unlock()
	}
}

// at returns when the event for prefix arrived.
func (t *subTrack) at(prefix int) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := prefix - t.base - 1
	if i < 0 || i >= len(t.recv) {
		return 0, false
	}
	return t.recv[i], true
}

func (t *subTrack) received() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recv)
}

// faults returns the first contiguity violation and the evictions seen.
func (t *subTrack) faults() (string, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bad, t.evicted
}

type liveState struct {
	ds    *data.Dataset
	ss    *servedStore
	a     *wire.Client // connection A: subscriptions and appends
	aAddr string
	b     *queryClient // connection B: queries
	subs  []*subTrack

	next     int          // next row to append; only the appender moves it
	lastTime atomic.Int64 // arrival time of the newest acknowledged row
	span     int64        // time span of the preloaded rows
	stopped  bool
}

func setupLive(cfg *config, dir string) (*liveState, error) {
	ds, err := loadData(cfg.rows)
	if err != nil {
		return nil, err
	}
	preload := min(livePreload, ds.Len()/2)
	ss, err := openServed(cfg, dir, ds, preload)
	if err != nil {
		return nil, err
	}
	st := &liveState{ds: ds, ss: ss, next: preload, span: ds.Time(preload-1) - ds.Time(0)}
	st.lastTime.Store(ds.Time(preload - 1))
	if st.a, st.aAddr, err = ss.srv.dial(); err != nil {
		st.close()
		return nil, err
	}
	if _, feats, err := st.a.Hello(wire.FeatureEvents, wire.FeatureBackfill); err != nil || len(feats) != 2 {
		st.close()
		return nil, fmt.Errorf("hello: features %v: %v", feats, err)
	}
	t0, t1 := ds.Span()
	g := newQueryGen(cfg.seed*7 + 50)
	for i := 0; i < liveSubs; i++ {
		s, err := st.a.Subscribe(wire.Request{Dataset: datasetName, QuerySpec: wire.QuerySpec{
			K: ks[i%len(ks)], Tau: (t1 - t0) / 10, Weights: g.weights(), Anchor: "look-back",
		}})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		t := &subTrack{s: s, base: s.Base(), done: make(chan struct{})}
		st.subs = append(st.subs, t)
		go t.consume()
	}
	c, addr, err := ss.srv.dial()
	if err != nil {
		st.close()
		return nil, err
	}
	st.b = &queryClient{c: c, addr: addr, sent: 1}
	return st, nil
}

// stop closes both connections, the server and the store, leaving the
// store's files in place.
func (st *liveState) stop() error {
	if st.stopped {
		return nil
	}
	st.stopped = true
	if st.a != nil {
		st.a.Close()
		for _, t := range st.subs {
			<-t.done
		}
	}
	if st.b != nil {
		st.b.c.Close()
	}
	return st.ss.close()
}

func (st *liveState) close() {
	if err := st.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	removeDir(st.ss.dir)
}

// appendOp is one open-loop batch.
type appendOp struct {
	due, send, ack int64
	last           int // committed prefix after the batch
	err            error
}

// appendLoop sends a batch every liveInterval from start until deadline,
// each at its due time or as soon as the previous one returned.
func (st *liveState) appendLoop(start, deadline int64) []appendOp {
	var ops []appendOp
	for i := int64(0); ; i++ {
		due := start + i*int64(liveInterval)
		if due >= deadline {
			return ops
		}
		if d := due - nowNS(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		lo, hi := st.next, st.next+liveBatch
		op := appendOp{due: due, last: hi}
		if hi > st.ds.Len() {
			op.err = fmt.Errorf("dataset exhausted at row %d", lo)
			return append(ops, op)
		}
		rows := rowsOf(st.ds, lo, hi)
		op.send = nowNS()
		resp, err := st.a.Append(datasetName, rows)
		op.ack = nowNS()
		if resp != nil {
			st.next += resp.Appended
		}
		if err == nil && resp.Appended != liveBatch {
			err = fmt.Errorf("%d of %d rows appended", resp.Appended, liveBatch)
		}
		op.err = err
		if err == nil {
			st.lastTime.Store(st.ds.Time(hi - 1))
		}
		ops = append(ops, op)
	}
}

// recentQuery draws a query over the newest rows.
func (st *liveState) recentQuery(g *queryGen) wire.Request {
	last := st.lastTime.Load()
	qs := g.spec(st.span)
	qs.Start, qs.End = last-int64(liveRecent*float64(st.span)), last
	return wire.Request{Op: wire.OpQuery, Dataset: datasetName, QuerySpec: qs}
}

// waitEvents waits until every subscription holds the event for the last
// committed prefix.
func (st *liveState) waitEvents(o *outcome) {
	limit := nowNS() + int64(eventWait)
	for _, t := range st.subs {
		for t.received() < st.next-t.base && nowNS() < limit {
			time.Sleep(time.Millisecond)
		}
		if got := t.received(); got != st.next-t.base {
			o.fail("subscription %d: %d events for %d appended rows", t.s.ID(), got, st.next-t.base)
		}
	}
}

// liveBatchTimes is the append and event timing of a phase's batches.
type liveBatchTimes struct {
	append, event, afterAck []float64 // ms
	eventP50, eventP99      float64   // medians of the sub-windows' event medians and tails
	late                    float64   // ms, summed
	rows, events            int
}

func (st *liveState) batchTimes(ops []appendOp, start int64, wall float64, o *outcome) liveBatchTimes {
	var bt liveBatchTimes
	windows := make([][]float64, subWindows)
	for _, op := range ops {
		o.attempted++
		if op.err != nil {
			o.fail("append due at %d: %v", op.due, op.err)
			continue
		}
		bt.rows += liveBatch
		bt.late += ms(max(0, op.send-op.due))
		bt.append = append(bt.append, ms(op.ack-op.due))
		var all int64
		for _, t := range st.subs {
			at, ok := t.at(op.last)
			if !ok {
				all = -1
				break
			}
			all = max(all, at)
		}
		if all < 0 {
			continue // reported by waitEvents
		}
		bt.events += liveSubs * liveBatch
		bt.event = append(bt.event, ms(all-op.due))
		bt.afterAck = append(bt.afterAck, ms(all-op.ack))
		i := windowOf(op.due, start, wall)
		windows[i] = append(windows[i], ms(all-op.due))
	}
	var p50s, p99s []float64
	for _, w := range windows {
		p50s = append(p50s, median(w))
		p99s = append(p99s, tail(w))
	}
	bt.eventP50, bt.eventP99 = median(p50s), median(p99s)
	return bt
}

func runLiveMixed(cfg *config, o *outcome) error {
	var n int
	st, err := repeatSetup(o, func() (*liveState, error) {
		n++
		return setupLive(cfg, fmt.Sprintf("%s/store-%d", cfg.workdir, n))
	})
	if err != nil {
		return err
	}
	defer st.close()
	g := newQueryGen(cfg.seed*7 + 60)
	next := func(int) draw {
		req := st.recentQuery(g)
		return draw{req: &req}
	}
	clients := []*queryClient{st.b}
	// run drives both connections until deadline.
	run := func(start, deadline int64, tracing bool) ([]appendOp, []queryOp) {
		var ops []appendOp
		done := make(chan struct{})
		go func() {
			defer close(done)
			ops = st.appendLoop(start, deadline)
		}()
		queries := flatten(closedLoop(clients, deadline, tracing, next))
		<-done
		st.waitEvents(o)
		return ops, queries
	}
	w0 := nowNS()
	warmAppends, all := run(w0, w0+liveWarmupSeconds*1e9, false)
	st.batchTimes(warmAppends, w0, liveWarmupSeconds, o)

	doc := make(map[string][]span)
	var baseP50 float64
	for _, ph := range phasesFor(cfg) {
		cache0, sched0, c0 := st.ss.srv.cache.Stats(), st.ss.srv.sched.Metrics(), countersOf(st.ss.st)
		var io0 ioDelta
		var aIn0, aOut0, bIn0, bOut0 int64
		if st.ss.fs != nil {
			io0 = st.ss.fs.snapshot()
			a, b := st.ss.srv.ln.conn(st.aAddr), st.ss.srv.ln.conn(st.b.addr)
			aIn0, aOut0, bIn0, bOut0 = a.in.Load(), a.out.Load(), b.in.Load(), b.out.Load()
		}
		st.ss.setTracer(ph.tr)
		start, deadline := ph.enter()
		appends, queries := run(start, deadline, ph.tr != nil)
		wall := float64(nowNS()-start) / 1e9
		ph.leave()
		st.ss.setTracer(nil)
		all = append(all, queries...)
		qs := summarizeQueries(queries, start, wall)
		bt := st.batchTimes(appends, start, wall, o)

		switch ph.name {
		case phaseE2E:
			o.set("op_p50_ms", "ms", qs.p50)
			o.set("throughput_per_s", "1/s", qs.qps)
			continue
		case phaseBaseline:
			baseP50 = qs.p50
			o.set("e2e.query_p50_ms", "ms", qs.p50)
			o.set("e2e.query_p99_ms", "ms", qs.p99)
			o.set("e2e.query_qps", "1/s", qs.qps)
			o.set("e2e.append_rows_per_s", "1/s", ratio(float64(bt.rows), wall))
			o.set("e2e.append_p50_ms", "ms", median(bt.append))
			o.set("e2e.append_p99_ms", "ms", tail(bt.append))
			o.set("e2e.event_p50_ms", "ms", bt.eventP50)
			o.set("e2e.event_p99_ms", "ms", bt.eventP99)
			continue
		}
		spans := ph.tr.drain()
		l := reconcileQueries(queries, spans, ph.tr, st.ss.srv.ln, clients, o)
		d := diffIO(io0, st.ss.fs.snapshot())
		appendSpans := linkLiveAppends(spans, appends, ph.tr, st.ds, o)
		doc[ph.name] = append(l.spans, appendSpans...)
		o.set("trace.op_p50_ms"+ph.suffix, "ms", qs.p50)
		setQueryLedger(o, l, ph.suffix)
		setWALLedger(o, d, st.ss.fs.takeFsyncs(), appendSpans, bt.rows, wall, ph.suffix)
		o.set("sub.event_after_ack_ms"+ph.suffix, "ms", median(bt.afterAck))
		if ph.name != phaseTraced {
			continue
		}
		o.set("trace.overhead_ratio", "ratio", ratio(qs.p50, baseP50))
		o.set("trace.spans", "count", float64(len(doc[ph.name])))
		o.set("loadgen.late_ms", "ms", bt.late)
		o.set("sub.events_per_append", "count", ratio(float64(bt.events), float64(bt.rows)))
		o.set("sub.groups", "count", float64(st.ss.st.Registry().Groups()))
		cache1, sched1 := st.ss.srv.cache.Stats(), st.ss.srv.sched.Metrics()
		hits, lookups := cache1.Hits-cache0.Hits, cache1.Hits+cache1.Misses-cache0.Hits-cache0.Misses
		o.set("serve.cache_hit_ratio", "ratio", ratio(float64(hits), float64(lookups)))
		o.set("serve.cache_lookups", "count", float64(lookups))
		o.set("serve.admitted", "count", float64(sched1.Admitted-sched0.Admitted))
		o.set("serve.rejected", "count", float64(sched1.Rejected-sched0.Rejected))
		a, b := st.ss.srv.ln.conn(st.aAddr), st.ss.srv.ln.conn(st.b.addr)
		o.set("wire.bytes_per_query", "B", ratio(float64(b.in.Load()-bIn0+b.out.Load()-bOut0), float64(len(queries))))
		o.set("wire.bytes_per_append_row", "B", ratio(float64(a.in.Load()-aIn0), float64(bt.rows)))
		o.set("wire.bytes_per_event", "B", ratio(float64(a.out.Load()-aOut0), float64(bt.events)))
		setLifecycle(o, c0, countersOf(st.ss.st), bt.rows)
	}
	countFailures(all, o)

	// The final state must answer like a batch engine over the committed
	// prefix, and every subscription must have seen every prefix once.
	req := fixedRequest(st.ds, st.next)
	o.attempted++
	if recs, _, err := st.b.c.Query(req); err != nil {
		o.fail("final query: %v", err)
	} else {
		checkIDs(o, "final query", req, recordIDs(recs), st.ds, st.next)
	}
	var dropped, evicted int64
	for _, t := range st.subs {
		o.attempted++
		bad, ev := t.faults()
		dropped += t.s.Dropped()
		evicted += int64(ev)
		if bad != "" {
			o.fail("subscription %d: %s", t.s.ID(), bad)
		}
	}
	if dropped+evicted > 0 {
		o.fail("subscriptions dropped %d and were evicted %d times", dropped, evicted)
	}
	if cfg.trace {
		o.set("sub.dropped", "count", float64(dropped))
		o.set("sub.evicted", "count", float64(evicted))
		directCore(st.ss.st.Engine(), coreEngineOver(st.ds, st.next), func() wire.Request { return st.recentQuery(g) }, directQueries, o)
	}

	// A restart recovers exactly the committed prefix, standing
	// subscriptions included.
	if err := st.stop(); err != nil {
		return err
	}
	rc, err := recoverStore(cfg, st.ss.dir, st.ds, st.next, liveRecoveries, st.ss.fs, o)
	if err != nil || !cfg.trace {
		return err
	}
	setRecovery(o, rc)
	return writeTrace(traceFile(cfg), doc)
}

// linkLiveAppends parents the phase's store.Append spans under client spans
// for the batches that carried them.
func linkLiveAppends(spans []span, ops []appendOp, tr *tracer, ds *data.Dataset, o *outcome) []span {
	var client []span
	first := -1
	for i, op := range ops {
		if op.err != nil {
			continue
		}
		if first < 0 {
			first = op.last - liveBatch
		}
		client = append(client, span{ID: tr.newID(), Req: int64(i + 1), Name: "client.Append", Start: op.send, End: op.ack})
	}
	var appendSpans []span
	for _, s := range spans {
		if s.Name != coreSpanName {
			appendSpans = append(appendSpans, s)
		}
	}
	return linkAppendSpans(appendSpans, client, func(t int64) int { return (ds.LowerBound(t) - first) / liveBatch }, o)
}
