package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Store configuration of the write workloads: every commit is fsynced on
// the real filesystem.
const (
	sealRows      = 4096
	compactFanout = 4
	userRowBytes  = 8 + 8*2 // a timestamp and two float64 attributes
	preloadBatch  = 8192
)

func storeOptions(fsys wal.FS) store.Options {
	return store.Options{
		FS:    fsys,
		Sync:  wal.SyncAlways,
		Shard: core.LiveShardOptions{SealRows: sealRows, CompactFanout: compactFanout},
	}
}

// servedStore is a store served over wire, with the benchmark's wrappers
// around its layers when traced.
type servedStore struct {
	dir    string
	st     *store.Store
	fs     *meteredFS     // nil when untraced
	ingest *tracedIngest  // nil when untraced
	query  *tracedQuerier // nil when untraced
	srv    *server
}

// storeFS returns the filesystem a store runs on: the real one, under the
// test fault hook, under the meter when traced.
func storeFS(cfg *config) (wal.FS, *meteredFS) {
	var fsys wal.FS = wal.OSFS{}
	if cfg.wrapFS != nil {
		fsys = cfg.wrapFS(fsys)
	}
	if !cfg.trace {
		return fsys, nil
	}
	m := &meteredFS{FS: fsys}
	return m, m
}

// openServed opens a store in dir, optionally preloads rows [0, preload) of
// ds in group-committed batches and lets seals, compactions and checkpoints
// settle, then serves it.
func openServed(cfg *config, dir string, ds *data.Dataset, preload int) (*servedStore, error) {
	fsys, mfs := storeFS(cfg)
	st, err := store.Open(dir, ds.Dims(), storeOptions(fsys))
	if err != nil {
		return nil, err
	}
	s := &servedStore{dir: dir, st: st, fs: mfs}
	// Large group commits keep the preload's WAL fsyncs few: set-up time is
	// then mostly the engine's work, not the shared disk's latency.
	for lo := 0; lo < preload; lo += preloadBatch {
		hi := min(lo+preloadBatch, preload)
		rows := make([]store.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, store.Row{T: ds.Time(i), Attrs: ds.Attrs(i)})
		}
		if n, _, _, err := st.AppendBatch(rows); err != nil || n != len(rows) {
			st.Close()
			return nil, fmt.Errorf("preload: %d of %d rows: %v", n, len(rows), err)
		}
	}
	st.Engine().WaitCompacted()
	st.Engine().WaitSealed()
	st.WaitCheckpoints()

	var q core.Querier = st.Engine()
	if cfg.wrapQuerier != nil {
		q = cfg.wrapQuerier(q)
	}
	var ingest wire.LiveIngest = st
	if cfg.trace {
		s.query = &tracedQuerier{querierShim: querierShim{q}}
		q = s.query
		s.ingest = &tracedIngest{st: st}
		ingest = s.ingest
		mfs.ingest = s.ingest
	}
	if s.srv, err = startServer(cfg.trace); err != nil {
		st.Close()
		return nil, err
	}
	if err := s.srv.srv.AddLiveQuerier(datasetName, q, ingest, attrNames); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *servedStore) setTracer(tr *tracer) {
	if s.fs == nil {
		return
	}
	s.fs.tr.Store(tr)
	s.ingest.tr.Store(tr)
	s.query.tr.Store(tr)
	s.srv.ln.tr.Store(tr)
}

// close stops serving and closes the store.
func (s *servedStore) close() error {
	serr := s.srv.close()
	if err := s.st.Close(); err != nil {
		return err
	}
	return serr
}

// engineCounters snapshots the live-sharded engine's lifecycle counters.
type engineCounters struct {
	seals, compactions, shards, indexed, checkpoints int
}

func countersOf(st *store.Store) engineCounters {
	e := st.Engine()
	return engineCounters{seals: e.Seals(), compactions: e.Compactions(), shards: e.NumShards(), indexed: e.IndexedRows(), checkpoints: st.Checkpoints()}
}

// setLifecycle reports the engine and store lifecycle work over rows appends.
func setLifecycle(o *outcome, before, after engineCounters, rows int) {
	o.set("core.seals", "count", float64(after.seals-before.seals))
	o.set("core.compactions", "count", float64(after.compactions-before.compactions))
	o.set("core.live_shards", "count", float64(after.shards))
	o.set("core.indexed_rows_per_append", "count", ratio(float64(after.indexed-before.indexed), float64(rows)))
	o.set("store.checkpoints", "count", float64(after.checkpoints-before.checkpoints))
}

// ioDelta is per-class file traffic: a meter snapshot, or the difference of
// two.
type ioDelta [numClasses][3]int64

// Columns of an ioDelta row.
const (
	ioWriteBytes = iota
	ioReadBytes
	ioSyncs
)

func diffIO(a, b ioDelta) ioDelta {
	var d ioDelta
	for c := range d {
		for k := range d[c] {
			d[c][k] = b[c][k] - a[c][k]
		}
	}
	return d
}

// setWALLedger reports the store and WAL layers for rows appended during
// wall seconds, from the I/O delta, the recorded WAL fsync durations and the
// store.Append spans with their WAL children. suffix marks GOMAXPROCS=1.
func setWALLedger(o *outcome, d ioDelta, fsyncs []float64, spans []span, rows int, wall float64, suffix string) {
	var appendNS, walNS, n int64
	for _, s := range spans {
		switch s.Name {
		case "store.Append":
			appendNS += s.dur()
			n++
		case "wal.write", "wal.fsync":
			if s.Parent != 0 {
				walNS += s.dur()
			}
		}
	}
	o.set("store.append_us_per_row"+suffix, "us", ratio(float64(appendNS)/1e3, float64(n)))
	o.set("store.append_self_us_per_row"+suffix, "us", ratio(float64(appendNS-walNS)/1e3, float64(n)))
	o.set("wal.fsync_p50_us"+suffix, "us", median(fsyncs))
	if suffix != "" {
		return
	}
	var written int64
	for c := range d {
		written += d[c][ioWriteBytes]
	}
	r := float64(rows)
	o.set("wal.fsyncs_per_row", "count", ratio(float64(d[classWAL][ioSyncs]), r))
	o.set("wal.fsync_p99_us", "us", tail(fsyncs))
	var fsyncUS float64
	for _, f := range fsyncs {
		fsyncUS += f
	}
	o.set("wal.fsync_share", "ratio", ratio(fsyncUS/1e6, wall))
	o.set("wal.bytes_per_row", "B", ratio(float64(d[classWAL][ioWriteBytes]), r))
	o.set("store.page_bytes_per_row", "B", ratio(float64(d[classPages][ioWriteBytes]), r))
	o.set("store.write_amp", "ratio", ratio(float64(written), r*userRowBytes))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// recovery is what recovering a closed store measured.
type recovery struct {
	ms        []float64 // wall time of each recovery
	stats     store.RecoveryStats
	readBytes int64   // read by the last recovery (metered stores only)
	diskRatio float64 // on-disk bytes per user byte before recovering
}

// recoverStore measures the closed store in dir on disk, then recovers it n
// times. After the last recovery it checks that exactly the committed rows
// of ds came back and that they answer a fixed query like a batch engine.
// mfs, when set, is the metered filesystem the store ran on.
func recoverStore(cfg *config, dir string, ds *data.Dataset, committed, n int, mfs *meteredFS, o *outcome) (recovery, error) {
	var r recovery
	disk, err := dirBytes(dir)
	if err != nil {
		return r, err
	}
	r.diskRatio = ratio(float64(disk), float64(committed*userRowBytes))
	fsys, _ := storeFS(cfg)
	if mfs != nil {
		fsys = mfs
	}
	for i := 0; i < n; i++ {
		var read0 ioDelta
		if mfs != nil {
			read0 = mfs.snapshot()
		}
		t0 := nowNS()
		rec, err := store.Open(dir, ds.Dims(), storeOptions(fsys))
		dt := nowNS() - t0
		if err != nil {
			o.attempted++
			o.fail("recover: %v", err)
			return r, nil
		}
		r.ms = append(r.ms, ms(dt))
		r.stats = rec.Stats()
		if mfs != nil {
			d := diffIO(read0, mfs.snapshot())
			r.readBytes = 0
			for c := range d {
				r.readBytes += d[c][ioReadBytes]
			}
		}
		if i == n-1 {
			o.attempted += 3
			if rec.Len() != committed {
				o.fail("recovered %d rows, %d committed", rec.Len(), committed)
			}
			if got := r.stats.RestoredRows + r.stats.ReplayedRows; got != committed {
				o.fail("recovery restored %d + replayed %d rows, %d committed", r.stats.RestoredRows, r.stats.ReplayedRows, committed)
			}
			if rec.Len() > 0 {
				req := fixedRequest(ds, rec.Len())
				if got, err := referenceIDs(rec.Engine(), req); err != nil {
					o.fail("recovered store: %v", err)
				} else {
					checkIDs(o, "recovered store", req, got, ds, rec.Len())
				}
			}
		}
		if err := rec.Close(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// setRecovery reports a traced run's recovery ledger.
func setRecovery(o *outcome, r recovery) {
	o.set("e2e.recovery_ms", "ms", median(r.ms))
	o.set("e2e.disk_bytes_per_user_byte", "ratio", r.diskRatio)
	o.set("store.restored_rows", "count", float64(r.stats.RestoredRows))
	o.set("store.replayed_rows", "count", float64(r.stats.ReplayedRows))
	o.set("store.recovery_read_bytes", "B", float64(r.readBytes))
}

// fixedRequest is the query a recovered or final store must answer exactly
// like a batch engine over its first n rows.
func fixedRequest(ds *data.Dataset, n int) wire.Request {
	t0, t1 := ds.Time(0), ds.Time(n-1)
	return wire.Request{Op: wire.OpQuery, Dataset: datasetName, QuerySpec: wire.QuerySpec{
		K: 10, Tau: (t1 - t0) / 10, Start: t0 + (t1-t0)/2, End: t1, ExplicitInterval: true, Weights: []float64{0.6, 0.4},
	}}
}

// checkIDs compares got, an answer to req, with a batch engine over the
// first n rows of ds. The caller counts the check as attempted.
func checkIDs(o *outcome, what string, req wire.Request, got []int, ds *data.Dataset, n int) {
	want, err := referenceIDs(coreEngineOver(ds, n), req)
	if err != nil {
		o.fail("%s: reference: %v", what, err)
		return
	}
	if !sameIDs(got, want) {
		o.fail("%s: %d ids, batch engine %d", what, len(got), len(want))
	}
}

// coreEngineOver builds a batch engine over the first n rows of ds.
func coreEngineOver(ds *data.Dataset, n int) *core.Engine {
	return core.NewEngine(ds.Prefix(n), core.Options{})
}

func removeDir(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
