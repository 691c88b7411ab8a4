package main

import (
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/score"
	"repro/internal/store"
	"repro/internal/sub"
	"repro/internal/wal"
)

// The wrappers below time each layer from outside the program, through its
// public surface only. Each holds an atomic tracer pointer: nil passes
// straight through, so one served stack can run untraced and traced phases.

// querierShim forwards the optional engine capabilities the wire server
// probes for. Without them a wrapped live engine would look immutable to
// the result cache (stale answers) and a sharded engine would lose its
// per-shard partial cache.
type querierShim struct{ core.Querier }

func (q querierShim) EpochSeq() uint64 {
	if e, ok := q.Querier.(interface{ EpochSeq() uint64 }); ok {
		return e.EpochSeq()
	}
	return 0
}

func (q querierShim) SetPartialCache(pc core.PartialCache) {
	if s, ok := q.Querier.(interface{ SetPartialCache(core.PartialCache) }); ok {
		s.SetPartialCache(pc)
	}
}

// queryKey identifies a query by its interval start and canonical scorer;
// the load generators make it unique per request.
func queryKey(start int64, s score.Scorer) string {
	k, _ := score.CanonicalKey(s)
	return strconv.FormatInt(start, 10) + "|" + k
}

const coreSpanName = "core.DurableTopK"

// tracedQuerier records one core.DurableTopK span per evaluation.
type tracedQuerier struct {
	querierShim
	tr atomic.Pointer[tracer]
}

func (q *tracedQuerier) DurableTopK(query core.Query) (*core.Result, error) {
	tr := q.tr.Load()
	if tr == nil {
		return q.Querier.DurableTopK(query)
	}
	start := nowNS()
	res, err := q.Querier.DurableTopK(query)
	s := span{Name: coreSpanName, Start: start, End: nowNS(), Key: queryKey(query.Start, query.Scorer)}
	if res != nil {
		s.Alg = res.Stats.Algorithm.String()
		s.Probes = res.Stats.TopKQueries()
		s.Visited = res.Stats.Visited
		s.Pruned = res.Stats.ShardsPruned
	}
	tr.record(s)
	return res, err
}

// tracedIngest wraps the store's append surface. It also forwards
// wire.RegistryProvider: without it the server would feed its own
// in-memory registry and subscriptions would stop being store-backed.
type tracedIngest struct {
	st  *store.Store
	tr  atomic.Pointer[tracer]
	cur atomic.Int64 // id of the in-flight store.Append span, for WAL I/O parents
}

func (i *tracedIngest) Append(t int64, attrs []float64) (monitor.Decision, []monitor.Confirmation, error) {
	tr := i.tr.Load()
	if tr == nil {
		return i.st.Append(t, attrs)
	}
	id := tr.newID()
	i.cur.Store(id)
	start := nowNS()
	dec, confs, err := i.st.Append(t, attrs)
	end := nowNS()
	i.cur.Store(0)
	tr.record(span{ID: id, Name: "store.Append", Start: start, End: end, Row: t})
	return dec, confs, err
}

func (i *tracedIngest) Monitored() bool          { return i.st.Monitored() }
func (i *tracedIngest) Registry() *sub.Registry  { return i.st.Registry() }
func (i *tracedIngest) RowSource() sub.RowSource { return i.st.RowSource() }
func (i *tracedIngest) SyncSubscriptions() error { return i.st.SyncSubscriptions() }
func (i *tracedIngest) currentAppend() int64     { return i.cur.Load() }

// File classes of the store's on-disk layout.
const (
	classWAL = iota
	classPages
	classManifest
	classOther
	numClasses
)

func classify(name string) int {
	base := filepath.Base(name)
	switch {
	case strings.HasSuffix(base, ".wal"):
		return classWAL
	case strings.HasSuffix(base, ".pages"):
		return classPages
	case strings.HasPrefix(base, "MANIFEST"):
		return classManifest
	}
	return classOther
}

// ioCounters totals one file class's traffic.
type ioCounters struct {
	writeBytes, readBytes, syncs atomic.Int64
}

// meteredFS counts bytes, writes and fsyncs per file class and, while
// traced, records a span per WAL write and fsync under the in-flight
// store.Append span.
type meteredFS struct {
	wal.FS
	tr     atomic.Pointer[tracer]
	ingest *tracedIngest // parent lookup; may be nil
	class  [numClasses]ioCounters

	mu     sync.Mutex
	fsyncs []float64 // WAL fsync durations (µs) while traced
}

type meteredFile struct {
	wal.File
	fs    *meteredFS
	class int
}

func (m *meteredFS) wrap(f wal.File, name string, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &meteredFile{File: f, fs: m, class: classify(name)}, nil
}

func (m *meteredFS) Create(name string) (wal.File, error) {
	f, err := m.FS.Create(name)
	return m.wrap(f, name, err)
}

func (m *meteredFS) Open(name string) (wal.File, error) {
	f, err := m.FS.Open(name)
	return m.wrap(f, name, err)
}

// snapshot copies the counters of every class.
func (m *meteredFS) snapshot() ioDelta {
	var out ioDelta
	for c := range m.class {
		k := &m.class[c]
		out[c] = [3]int64{k.writeBytes.Load(), k.readBytes.Load(), k.syncs.Load()}
	}
	return out
}

// takeFsyncs returns and clears the recorded WAL fsync durations.
func (m *meteredFS) takeFsyncs() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.fsyncs
	m.fsyncs = nil
	return out
}

// timeIO runs one file operation and, for traced WAL I/O, records a span
// under the in-flight append.
func (f *meteredFile) timeIO(name string, op func() error) error {
	tr := f.fs.tr.Load()
	if f.class != classWAL || tr == nil {
		return op()
	}
	start := nowNS()
	err := op()
	end := nowNS()
	s := span{Name: name, Start: start, End: end}
	if f.fs.ingest != nil {
		s.Parent = f.fs.ingest.currentAppend()
	}
	tr.record(s)
	if name == "wal.fsync" {
		f.fs.mu.Lock()
		f.fs.fsyncs = append(f.fs.fsyncs, float64(end-start)/1e3)
		f.fs.mu.Unlock()
	}
	return err
}

func (f *meteredFile) WriteAt(p []byte, off int64) (int, error) {
	var n int
	err := f.timeIO("wal.write", func() error {
		var err error
		n, err = f.File.WriteAt(p, off)
		return err
	})
	f.fs.class[f.class].writeBytes.Add(int64(n))
	return n, err
}

func (f *meteredFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.class[f.class].readBytes.Add(int64(n))
	return n, err
}

func (f *meteredFile) Sync() error {
	f.fs.class[f.class].syncs.Add(1)
	return f.timeIO("wal.fsync", f.File.Sync)
}

// meteredListener wraps the listener handed to wire.Server.Serve: every
// accepted connection counts its bytes and, while traced, timestamps frame
// boundaries so server-side request spans can be rebuilt.
type meteredListener struct {
	net.Listener
	tr atomic.Pointer[tracer]

	mu    sync.Mutex
	conns map[string]*meteredConn // by remote address
}

func newMeteredListener(ln net.Listener) *meteredListener {
	return &meteredListener{Listener: ln, conns: make(map[string]*meteredConn)}
}

func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	mc := &meteredConn{Conn: c, tr: &l.tr}
	l.mu.Lock()
	l.conns[c.RemoteAddr().String()] = mc
	l.mu.Unlock()
	return mc, nil
}

// conn returns the server side of the connection whose client end has the
// given local address.
func (l *meteredListener) conn(clientAddr string) *meteredConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[clientAddr]
}

// bytes returns the total bytes read and written over every connection.
func (l *meteredListener) bytes() (in, out int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		in += c.in.Load()
		out += c.out.Load()
	}
	return in, out
}

// meteredConn is the server end of one wire connection. Frames are the
// protocol's 4-byte big-endian length prefix plus payload; the scanners
// follow them across arbitrary read and write chunking.
type meteredConn struct {
	net.Conn
	tr      *atomic.Pointer[tracer]
	in, out atomic.Int64

	mu        sync.Mutex
	rd, wr    frameScanner
	readDone  []int64 // per inbound frame: when its last byte was read
	writeFrom []int64 // per outbound frame: when the write carrying its first byte began
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	if n > 0 {
		// Untraced frames are recorded too (at 0), so frame indexes keep
		// matching request order across phases.
		at := int64(0)
		if c.tr.Load() != nil {
			at = nowNS()
		}
		c.mu.Lock()
		_, done := c.rd.feed(p[:n])
		for ; done > 0; done-- {
			c.readDone = append(c.readDone, at)
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	at := int64(0)
	if c.tr.Load() != nil {
		at = nowNS()
	}
	c.mu.Lock()
	started, _ := c.wr.feed(p)
	for ; started > 0; started-- {
		c.writeFrom = append(c.writeFrom, at)
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// frames returns copies of the frame timestamps recorded so far.
func (c *meteredConn) frames() (readDone, writeFrom []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.readDone...), append([]int64(nil), c.writeFrom...)
}

// frameScanner tracks position within a stream of length-prefixed frames.
type frameScanner struct {
	hdr    [4]byte
	nhdr   int
	remain int
}

// feed consumes p and reports how many frames began and how many completed
// within it.
func (s *frameScanner) feed(p []byte) (started, completed int) {
	for len(p) > 0 {
		if s.nhdr < 4 {
			if s.nhdr == 0 {
				started++
			}
			s.hdr[s.nhdr] = p[0]
			s.nhdr++
			p = p[1:]
			if s.nhdr == 4 {
				s.remain = int(uint32(s.hdr[0])<<24 | uint32(s.hdr[1])<<16 | uint32(s.hdr[2])<<8 | uint32(s.hdr[3]))
				if s.remain == 0 {
					s.nhdr = 0
					completed++
				}
			}
			continue
		}
		k := s.remain
		if k > len(p) {
			k = len(p)
		}
		s.remain -= k
		p = p[k:]
		if s.remain == 0 {
			s.nhdr = 0
			completed++
		}
	}
	return started, completed
}
