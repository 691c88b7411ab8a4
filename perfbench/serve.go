package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/serve"
	"repro/internal/wire"
)

// datasetName is the served dataset of every workload.
const datasetName = "nba2"

// Serving configuration shared by the workloads: admission bounded to the
// core count, and a result cache large enough for the hot pool.
const cacheEntries = 4096

// server is one wire.Server on a loopback listener.
type server struct {
	srv   *wire.Server
	sched *serve.Scheduler
	cache *serve.Cache
	ln    *meteredListener // nil when untraced
	addr  string
	done  chan error
}

// startServer serves on 127.0.0.1. A traced server hands Serve a metered
// listener.
func startServer(traced bool) (*server, error) {
	srv := wire.NewServer(func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "perfbench: server: "+format+"\n", args...)
	})
	s := &server{srv: srv, sched: serve.NewScheduler(runtime.NumCPU()), cache: serve.NewCache(cacheEntries), done: make(chan error, 1)}
	srv.SetScheduler(s.sched)
	srv.SetCache(s.cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	var served net.Listener = ln
	if traced {
		s.ln = newMeteredListener(ln)
		served = s.ln
	}
	go func() { s.done <- srv.Serve(served) }()
	return s, nil
}

// dial opens one client connection and returns the client with its local
// address (the server side's remote address). The ping makes sure the
// server has accepted the connection: wire.Server.Close races with an accept
// still in flight.
func (s *server) dial() (*wire.Client, string, error) {
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, "", err
	}
	c := wire.NewClient(conn)
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, "", err
	}
	return c, conn.LocalAddr().String(), nil
}

// close shuts the server down and waits for Serve to return.
func (s *server) close() error {
	err := s.srv.Close()
	if serr := <-s.done; serr != nil && !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	s.sched.Close()
	return err
}

// Query parameter domains of the read workloads.
var (
	ks      = []int{5, 10, 20}
	tauPcts = []float64{0.05, 0.10, 0.20}
)

// queryGen draws durable top-k queries with random linear weights. Weights
// are drawn away from zero, so scorers stay monotone and distinct.
type queryGen struct{ rng *rand.Rand }

func newQueryGen(seed int64) *queryGen { return &queryGen{rng: rand.New(rand.NewSource(seed))} }

func (g *queryGen) weights() []float64 {
	return []float64{0.05 + 0.95*g.rng.Float64(), 0.05 + 0.95*g.rng.Float64()}
}

// spec draws k, τ (a share of span) and the scorer; the caller sets the
// interval.
func (g *queryGen) spec(span int64) wire.QuerySpec {
	tau := int64(tauPcts[g.rng.Intn(len(tauPcts))] * float64(span))
	return wire.QuerySpec{K: ks[g.rng.Intn(len(ks))], Tau: tau, Weights: g.weights(), ExplicitInterval: true}
}

// window draws a query over half of [t0, t1] at a random position.
func (g *queryGen) window(t0, t1 int64) wire.Request {
	span := t1 - t0
	qs := g.spec(span)
	qs.Start = t0 + g.rng.Int63n(span/2+1)
	qs.End = qs.Start + span/2
	return wire.Request{Op: wire.OpQuery, Dataset: datasetName, QuerySpec: qs}
}

// coreQuery translates a wire query request into the engine query the
// server evaluates for it.
func coreQuery(req wire.Request) (core.Query, error) {
	sc, err := scorerOf(req.Weights)
	if err != nil {
		return core.Query{}, err
	}
	return core.Query{K: req.K, Tau: req.Tau, Start: req.Start, End: req.End, Scorer: sc}, nil
}

// referenceIDs evaluates req on a batch engine.
func referenceIDs(eng core.Querier, req wire.Request) ([]int, error) {
	q, err := coreQuery(req)
	if err != nil {
		return nil, err
	}
	res, err := eng.DurableTopK(q)
	if err != nil {
		return nil, err
	}
	return res.IDs(), nil
}

func recordIDs(recs []wire.Record) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	return ids
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rowsOf converts dataset rows [lo, hi) into wire append rows.
func rowsOf(ds *data.Dataset, lo, hi int) []wire.IngestRow {
	rows := make([]wire.IngestRow, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, wire.IngestRow{Time: ds.Time(i), Attrs: append([]float64(nil), ds.Attrs(i)...)})
	}
	return rows
}
