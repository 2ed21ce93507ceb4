package main

import (
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// scatterSpec sizes a scatter workload.
type scatterSpec struct {
	docs, pool, askers, k int
	// ingest runs the open-loop ingester beside the askers.
	ingest       bool
	batch        int
	rate         float64 // offered docs/s
	compactAfter int64   // docstore.Options.CompactAfterBytes
	setups       int     // clusters built per untraced run; setup_s is their median
	procs        int     // GOMAXPROCS for the run (see pinProcs)
	replayEvery  int     // traced runs replay every Nth ask layer by layer
}

// rpcTimeout bounds the harness's own replay round-trips.
const rpcTimeout = 2 * time.Second

func scatterSpecFor(ingest bool, scale float64) scatterSpec {
	s := scatterSpec{
		docs: scaled(32768, scale, 512), pool: scaled(256, scale, 16), k: 10,
		batch: 16, rate: 320,
		// WAL growth is about 670 B/doc and the hot shard takes ~3/4 of
		// 320 docs/s, so it compacts every ~6 s: three times in 20 s.
		compactAfter: 1 << 20,
		setups:       3, replayEvery: 64,
	}
	if scale < 1 {
		s.setups = 1
	}
	if ingest {
		// Writes, fsync, freezes and compaction get the second CPU, as on
		// a deployed node; on one P the asker stalls behind every fsync
		// until the runtime hands the P back.
		s.ingest, s.askers, s.procs = true, 1, 2
	} else {
		// One P measures the read path's CPU cost per ask. On two vCPUs
		// cross-CPU wake-ups between askers, router and servers made the
		// same seed's rate swing between ~1400 and ~2900 asks/s.
		s.askers, s.procs = 2, 1
	}
	return s
}

func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale), floor)
}

func runScatterRead(cfg *config) (*outcome, error) {
	return runScatter(cfg, scatterSpecFor(false, cfg.scale))
}

func runScatterIngest(cfg *config) (*outcome, error) {
	return runScatter(cfg, scatterSpecFor(true, cfg.scale))
}

// scatterInputs is everything the workload feeds the program, generated
// from the seed before any timing starts.
type scatterInputs struct {
	corpus []*docstore.Document
	pool   []string
	writes [][]*docstore.Document // ingest batches, fresh IDs
}

func genScatter(seed int64, spec scatterSpec, seconds float64) *scatterInputs {
	g := workload.NewGenerator(seed, 32, 16)
	in := &scatterInputs{}
	for _, d := range g.GenCorpus(spec.docs, 1.1, int64(time.Hour)) {
		in.corpus = append(in.corpus, d.Doc)
	}
	users := g.GenUsers(64)
	in.pool = make([]string, spec.pool)
	for i := range in.pool {
		in.pool[i], _, _ = g.QueryFor(users[i%len(users)])
	}
	if spec.ingest {
		in.writes = genBatches(g, int(math.Ceil(spec.rate*seconds/float64(spec.batch)))+1, spec.batch)
	}
	return in
}

// genBatches draws further generator output under fresh IDs (GenCorpus
// restarts its numbering, so these are new documents, not replacements).
func genBatches(g *workload.Generator, n, size int) [][]*docstore.Document {
	docs := g.GenCorpus(n*size, 1.1, 0)
	out := make([][]*docstore.Document, n)
	for i := range out {
		for j := 0; j < size; j++ {
			d := docs[i*size+j].Doc
			d.ID = fmt.Sprintf("ing%07d", i*size+j)
			out[i] = append(out[i], d)
		}
	}
	return out
}

// cluster is the scatter deployment: one durable store and one TCP server
// per shard, and a router over them, as agora-node -dir runs it.
type cluster struct {
	m       *shard.Map
	ids     []string
	index   map[string]int
	opts    []docstore.Options
	stores  []*docstore.Store
	servers []*transport.Server
	serving sync.WaitGroup
	router  *shard.Router
	reg     *telemetry.Registry
	// replay holds the harness's own connection to each shard, used to
	// replay asks layer by layer.
	replayClients []*transport.Client
}

// startCluster builds a cluster under dir and returns it with the time
// spent in bulk loading. The caller times the whole call as set-up.
func startCluster(dir string, seed int64, spec scatterSpec, in *scatterInputs, reg *telemetry.Registry) (*cluster, time.Duration, error) {
	c := &cluster{ids: []string{"shard0", "shard1"}, index: map[string]int{}, reg: reg}
	c.m = shard.NewUniform(c.ids)
	parts := make([][]*docstore.Document, len(c.ids))
	for i, id := range c.ids {
		c.index[id] = i
	}
	for _, d := range in.corpus {
		i := c.index[c.m.Locate(shard.DocKey(d)).ID]
		parts[i] = append(parts[i], d)
	}
	var bulk time.Duration
	for i, id := range c.ids {
		opts := docstore.Options{
			Dir: filepath.Join(dir, id), ConceptDim: 32, Seed: seed,
			SyncEveryPut: true, CompactAfterBytes: spec.compactAfter, Telemetry: reg,
		}
		st, err := docstore.Open(opts)
		if err != nil {
			return nil, 0, c.abort(fmt.Errorf("open %s: %w", id, err))
		}
		c.opts = append(c.opts, opts)
		c.stores = append(c.stores, st)
		t0 := time.Now()
		if err := st.PutBatch(parts[i]); err != nil {
			return nil, 0, c.abort(fmt.Errorf("bulk load %s: %w", id, err))
		}
		bulk += time.Since(t0)
		if err := settleCompaction(st, spec.compactAfter); err != nil {
			return nil, 0, c.abort(fmt.Errorf("%s: %w", id, err))
		}
		srv := transport.NewServer(id, st)
		mem := c.m.Members()[i]
		srv.ShardStart, srv.ShardEnd = mem.Start, mem.End
		if reg != nil {
			srv.SetTelemetry(reg)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, c.abort(err)
		}
		c.servers = append(c.servers, srv)
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			_ = srv.Serve(ln) // returns when Close stops the listener
		}()
		c.m.SetAddrs(id, ln.Addr().String())
	}
	r, err := shard.NewRouter(c.m, shard.Options{Telemetry: reg})
	if err != nil {
		return nil, 0, c.abort(err)
	}
	c.router = r
	// Warm-up: one ask per pool query fills the router's per-shard
	// term-statistics cache, as a steady-state router's would be.
	for _, q := range in.pool {
		if res := r.Ask(q, spec.k); res.Partial {
			return nil, 0, c.abort(fmt.Errorf("warm-up ask %q partial: %v", q, res.Errors))
		}
	}
	return c, bulk, nil
}

// waitCompaction waits until a background compaction the last writes
// started has brought the WAL back under budget.
func waitCompaction(st *docstore.Store, budget int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for budget > 0 && st.Stats().WALBytes > budget {
		if time.Now().After(deadline) {
			return fmt.Errorf("WAL still %d bytes after 60s", st.Stats().WALBytes)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// settleCompaction waits until the store's WAL is back under its
// compaction budget: a bulk load overflows it and compacts in the
// background, which belongs to set-up, not to the measured window.
func settleCompaction(st *docstore.Store, budget int64) error {
	if budget <= 0 {
		return nil
	}
	if err := st.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	return waitCompaction(st, budget)
}

func (c *cluster) abort(err error) error {
	if cerr := c.close(); cerr != nil {
		return fmt.Errorf("%w (closing: %v)", err, cerr)
	}
	return err
}

// dialReplay opens the harness's own connection to every shard.
func (c *cluster) dialReplay() error {
	for _, mem := range c.m.Members() {
		cl, err := transport.Dial(mem.Addrs[0], "agorabench-replay", rpcTimeout)
		if err != nil {
			return fmt.Errorf("dial %s: %w", mem.ID, err)
		}
		c.replayClients = append(c.replayClients, cl)
	}
	return nil
}

// close stops router, connections, servers and stores, waiting for each.
func (c *cluster) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if c.router != nil {
		keep(c.router.Close())
		c.router = nil
	}
	for _, cl := range c.replayClients {
		keep(cl.Close())
	}
	c.replayClients = nil
	for _, s := range c.servers {
		keep(s.Close())
	}
	c.servers = nil
	c.serving.Wait()
	for _, st := range c.stores {
		keep(st.Close())
	}
	c.stores = nil
	return first
}

// write routes one batch to its owning shards through Store.PutBatch.
func (c *cluster) write(batch []*docstore.Document, log *ingestLog) error {
	parts := make([][]*docstore.Document, len(c.stores))
	for _, d := range batch {
		i := c.index[c.m.Locate(shard.DocKey(d)).ID]
		parts[i] = append(parts[i], d)
	}
	freezes := c.reg.Counter("docstore.snapshot.freezes")
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		st := c.stores[i]
		e0, f0 := st.Epoch(), freezes.Value()
		t0 := time.Now()
		err := st.PutBatch(p)
		log.storeWrite(time.Since(t0), st.Epoch()-e0, freezes.Value()-f0)
		if err != nil {
			return fmt.Errorf("put batch on %s: %w", c.ids[i], err)
		}
	}
	return nil
}

// askLog is what the closed-loop askers saw.
type askLog struct {
	mu                     sync.Mutex
	start                  time.Time
	lat                    []float64 // ms; failed asks are +Inf
	asks, failed           int64
	fanout, pruned, hedges int64
	elapsed                time.Duration
}

func newAskLog() *askLog { return &askLog{start: time.Now()} }

func (l *askLog) add(d time.Duration, ok bool, res *shard.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.asks++
	if ok {
		l.lat = append(l.lat, ms(d))
	} else {
		l.failed++
		l.lat = append(l.lat, math.Inf(1))
	}
	if res != nil {
		l.fanout += int64(res.Fanout)
		l.pruned += int64(res.Pruned)
		l.hedges += int64(res.Hedges)
	}
}

func (l *askLog) rate() float64 { return ratio(float64(l.asks), l.elapsed.Seconds()) }

// p returns the q-quantile latency; when it lands on a failed ask it is
// reported as the whole window, the longest wait a run can show.
func (l *askLog) p(q float64) float64 {
	v := quantile(l.lat, q)
	if math.IsInf(v, 1) {
		return ms(l.elapsed)
	}
	return v
}

// window runs the askers (and the ingester) for d and returns their logs.
func (c *cluster) window(spec scatterSpec, in *scatterInputs, d time.Duration, st *scatterTrace) (*askLog, *ingestLog) {
	asks, ing := newAskLog(), &ingestLog{}
	start := asks.start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for a := 0; a < spec.askers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			c.askLoop(spec, in.pool, a*len(in.pool)/spec.askers, deadline, asks, st)
		}(a)
	}
	if spec.ingest {
		interval := time.Duration(float64(spec.batch) / spec.rate * float64(time.Second))
		ingestLoop(in.writes, interval, deadline, func(b []*docstore.Document) error { return c.write(b, ing) }, ing)
	}
	wg.Wait()
	asks.elapsed = time.Since(start)
	return asks, ing
}

func (c *cluster) askLoop(spec scatterSpec, pool []string, offset int, deadline time.Time, log *askLog, st *scatterTrace) {
	for i := 0; time.Now().Before(deadline); i++ {
		q := pool[(offset+i)%len(pool)]
		replay := st != nil && i%spec.replayEvery == 0
		if replay {
			// Replayed asks run alone, the other askers held back, so
			// the ask and its layer-by-layer replay time the same
			// uncontended path.
			st.gate.Lock()
		} else if st != nil {
			st.gate.RLock()
		}
		t0 := time.Now()
		res := c.router.Ask(q, spec.k)
		t1 := time.Now()
		log.add(t1.Sub(t0), !res.Partial && len(res.Errors) == 0, &res)
		if replay {
			st.observe(c, q, spec.k, t0, t1, &res)
			st.gate.Unlock()
		} else if st != nil {
			st.gate.RUnlock()
		}
	}
}

// canonicalTerms is the router's term list for a query: distinct tokens in
// first-appearance order.
func canonicalTerms(q string) []string {
	var terms []string
	for _, t := range feature.Tokenize(q) {
		seen := false
		for _, u := range terms {
			if u == t {
				seen = true
				break
			}
		}
		if !seen {
			terms = append(terms, t)
		}
	}
	return terms
}

// replayed is one ask re-run layer by layer through public functions.
type replayed struct {
	localStats, rttStats, query, search []time.Duration // per shard
	merge, codec                        time.Duration
	bytes                               []int // per shard: Query + QueryResult payloads
	lists                               [][]wire.ResultItem
	merged                              []wire.ResultItem
}

// replay re-runs an ask the way the router does: TermStats from every
// shard (in-process and over the wire), a QueryGlobal per shard under the
// summed statistics, the same search in-process, the wire codec of query
// and answer, and MergeTopK. Spans go to t under parent/ask.
func (c *cluster) replayAsk(q string, k int, t *tracer, parent, ask int64) (*replayed, error) {
	terms := canonicalTerms(q)
	n := len(c.stores)
	r := &replayed{
		localStats: make([]time.Duration, n), rttStats: make([]time.Duration, n),
		query: make([]time.Duration, n), search: make([]time.Duration, n),
		bytes: make([]int, n), lists: make([][]wire.ResultItem, n),
	}
	span := func(name string, f func() error) (time.Duration, error) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		t.child(parent, ask, name, t0, t1)
		return t1.Sub(t0), err
	}
	for i, st := range c.stores {
		r.localStats[i], _ = span("docstore.termstats", func() error { st.TermStats(terms); return nil })
	}
	var total uint64
	df := make([]uint64, len(terms))
	for i, cl := range c.replayClients {
		var resp wire.TermStatsResp
		var err error
		if r.rttStats[i], err = span("transport.termstats", func() error {
			resp, err = cl.TermStats(terms, rpcTimeout)
			return err
		}); err != nil {
			return nil, fmt.Errorf("term stats %s: %w", c.ids[i], err)
		}
		if len(resp.DF) != len(terms) {
			return nil, fmt.Errorf("term stats %s: %d DF for %d terms", c.ids[i], len(resp.DF), len(terms))
		}
		total += resp.Total
		for j := range terms {
			df[j] += resp.DF[j]
		}
	}
	if total == 0 || len(terms) == 0 {
		return r, nil
	}
	results := make([]wire.QueryResult, n)
	for i, cl := range c.replayClients {
		var err error
		if r.query[i], err = span("transport.query", func() error {
			results[i], err = cl.QueryGlobal(q, k, rpcTimeout, telemetry.TraceContext{}, total, terms, df)
			return err
		}); err != nil {
			return nil, fmt.Errorf("query %s: %w", c.ids[i], err)
		}
		r.lists[i] = results[i].Items
	}
	gs := &docstore.GlobalStats{TotalDocs: total, Terms: terms, DF: df}
	for i, st := range c.stores {
		r.search[i], _ = span("docstore.search", func() error { st.SearchTextGlobal(q, k, gs); return nil })
	}
	r.merge, _ = span("shard.merge", func() error { r.merged = shard.MergeTopK(r.lists, k); return nil })
	var qbuf, rbuf []byte
	var codecErr error
	r.codec, _ = span("wire.codec", func() error {
		for i := range results {
			wq := wire.Query{ID: "q", Text: q, TopK: uint32(k), GlobalDocs: total, StatsTerms: terms, StatsDF: df}
			qbuf = wq.AppendTo(qbuf[:0])
			if _, err := wire.UnmarshalQueryShared(qbuf); err != nil {
				codecErr = err
			}
			rbuf = results[i].AppendTo(rbuf[:0])
			if _, err := wire.UnmarshalQueryResultShared(rbuf); err != nil {
				codecErr = err
			}
			r.bytes[i] = len(qbuf) + len(rbuf)
		}
		return nil
	})
	if codecErr != nil {
		return nil, fmt.Errorf("wire round trip: %w", codecErr)
	}
	return r, nil
}

// scatterTrace accumulates the traced run's replays.
type scatterTrace struct {
	t *tracer
	// gate lets a replayed ask run with the other askers held back.
	gate sync.RWMutex
	// checkReplay compares each replay with its ask; only sound when no
	// write can land between them.
	checkReplay bool

	mu                                          sync.Mutex
	asks                                        int64
	askUs, slowestUs, statsUs                   []float64
	queryUs, wireUs, statsRttUs, statsLocalUs   []float64
	searchUs, mergeUs, codecUs, bytesAsk        []float64
	replayErrs, replayMismatch, replaysCompared int64
	firstErr                                    error
}

// observe records a finished ask as a span and replays it.
func (s *scatterTrace) observe(c *cluster, q string, k int, t0, t1 time.Time, res *shard.Result) {
	askID := s.t.id()
	s.t.record(askID, 0, askID, "shard.ask", t0, t1)
	replayID := s.t.id()
	r0 := time.Now()
	r, err := c.replayAsk(q, k, s.t, replayID, askID)
	s.t.record(replayID, 0, askID, "replay", r0, time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.replayErrs++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	if s.checkReplay && !res.Partial {
		s.replaysCompared++
		if sameItems(res.Items, r.merged) != nil {
			s.replayMismatch++
		}
	}
	// The slowest shard query the router waited on: the shards that
	// answered items, or every shard when more were asked than answered.
	sources := map[string]bool{}
	for _, it := range res.Items {
		sources[it.Source] = true
	}
	var slowest time.Duration
	var bytes int
	for i, id := range c.ids {
		asked := sources[id] || res.Fanout > len(sources)
		if asked {
			slowest = max(slowest, r.query[i])
			bytes += r.bytes[i]
		}
		s.queryUs = append(s.queryUs, us(r.query[i]))
		s.wireUs = append(s.wireUs, us(r.query[i]-r.search[i]))
		s.statsRttUs = append(s.statsRttUs, us(r.rttStats[i]))
		s.statsLocalUs = append(s.statsLocalUs, us(r.localStats[i]))
		s.searchUs = append(s.searchUs, us(r.search[i]))
	}
	var statsWait time.Duration
	for _, d := range r.rttStats {
		statsWait = max(statsWait, d)
	}
	s.askUs = append(s.askUs, us(t1.Sub(t0)))
	s.slowestUs = append(s.slowestUs, us(slowest))
	s.statsUs = append(s.statsUs, us(statsWait))
	s.mergeUs = append(s.mergeUs, us(r.merge))
	s.codecUs = append(s.codecUs, us(r.codec))
	s.bytesAsk = append(s.bytesAsk, float64(bytes))
}

// wireSample sums the WireStats of the servers and of the harness's replay
// connections (the router's own connections are not exported).
type wireSample struct {
	serverFrames, frames, flushes, served uint64
}

func (c *cluster) wireCounts() wireSample {
	var w wireSample
	for _, s := range c.servers {
		ws := s.WireStats()
		w.serverFrames += ws.Frames
		w.frames += ws.Frames
		w.flushes += ws.Flushes
		w.served += s.Served()
	}
	for _, cl := range c.replayClients {
		ws := cl.WireStats()
		w.frames += ws.Frames
		w.flushes += ws.Flushes
	}
	return w
}

// storeCounts sums block counters and WAL bytes over the shards.
func (c *cluster) storeCounts() (decoded, skipped uint64, wal int64) {
	for _, st := range c.stores {
		s := st.Stats()
		decoded += s.BlocksDecoded
		skipped += s.BlocksSkipped
		wal += s.WALBytes
	}
	return decoded, skipped, wal
}

// regSample reads the registry counters and histograms the traced run
// reports from.
type regSample struct {
	freezes, syncs, windows, groupSize, syncWait uint64
	compacts                                     uint64
	compactSum                                   float64
	cacheHits, cacheMisses                       uint64
}

func readReg(reg *telemetry.Registry) regSample {
	cs := reg.Histogram("docstore.compact").Snapshot()
	return regSample{
		freezes:     reg.Counter("docstore.snapshot.freezes").Value(),
		syncs:       reg.Counter("docstore.wal.syncs").Value(),
		windows:     reg.Counter("docstore.wal.windows").Value(),
		groupSize:   reg.Counter("docstore.wal.group_size").Value(),
		syncWait:    reg.Counter("docstore.wal.sync_wait_us").Value(),
		compacts:    cs.Count,
		compactSum:  cs.Sum,
		cacheHits:   reg.Counter("docstore.cache.hits").Value(),
		cacheMisses: reg.Counter("docstore.cache.misses").Value(),
	}
}

// writeLayer fills the docstore write-path metrics from the ingester's log
// and the registry delta over the writes.
func writeLayer(layer map[string]float64, ing *ingestLog, a, b regSample) {
	layer["docstore.put_p50_ms"] = quantile(ing.put, 0.5)
	layer["docstore.put_p99_ms"] = quantile(ing.put, 0.99)
	layer["docstore.freeze_ms"] = median(ing.freeze)
	layer["docstore.freezes_per_kdoc"] = ratio(float64(ing.freezes), float64(ing.docs)/1000)
	layer["docstore.epochs_per_batch"] = ratio(float64(ing.epochs), float64(len(ing.put)))
	layer["docstore.wal_syncs_per_batch"] = ratio(float64(b.syncs-a.syncs), float64(len(ing.put)))
	layer["docstore.group_size"] = ratio(float64(b.groupSize-a.groupSize), float64(b.windows-a.windows))
	layer["docstore.sync_wait_us"] = ratio(float64(b.syncWait-a.syncWait), float64(len(ing.put)))
	layer["docstore.compactions"] = float64(b.compacts - a.compacts)
	layer["docstore.compact_ms"] = 1e3 * ratio(b.compactSum-a.compactSum, float64(b.compacts-a.compacts))
	layer["docstore.cache_hit_frac"] = ratio(float64(b.cacheHits-a.cacheHits), float64(b.cacheHits-a.cacheHits+b.cacheMisses-a.cacheMisses))
	layer["harness.ingest_late_p99_ms"] = quantile(ing.late, 0.99)
}

func runScatter(cfg *config, spec scatterSpec) (*outcome, error) {
	pinProcs(spec.procs)
	oc := newOutcome()
	in := genScatter(cfg.seed, spec, cfg.seconds)
	// The harness lets go of the corpus while asks are measured, so its
	// own heap does not add garbage-collection work to the window; the
	// generator gives the same documents back for the checks.
	regen := func() { in.corpus = genScatter(cfg.seed, spec, cfg.seconds).corpus }
	window := time.Duration(cfg.seconds * float64(time.Second))
	dirs := 0
	newDir := func() string {
		dirs++
		return filepath.Join(cfg.dataDir, fmt.Sprintf("cluster%d", dirs))
	}
	var c *cluster
	defer func() {
		if c != nil {
			_ = c.close() // error paths only; the success path closes and checks
		}
	}()

	var asks *askLog
	var ing *ingestLog
	if !cfg.trace {
		var setups []float64
		for i := 0; i < spec.setups; i++ {
			if c != nil {
				if err := c.close(); err != nil {
					return nil, err
				}
				c = nil
				releaseMemory()
			}
			t0 := time.Now()
			cl, _, err := startCluster(newDir(), cfg.seed, spec, in, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			c = cl
		}
		oc.e2e["setup_s"] = median(setups)
		in.corpus = nil
		asks, ing = c.window(spec, in, window, nil)
	} else {
		// Untraced half first, on its own cluster, for the overhead ratio.
		cl, _, err := startCluster(newDir(), cfg.seed, spec, in, nil)
		if err != nil {
			return nil, err
		}
		c = cl
		in.corpus = nil
		plain, _ := c.window(spec, in, window/2, nil)
		if err := c.close(); err != nil {
			return nil, err
		}
		c = nil
		regen()
		reg := telemetry.NewRegistry()
		cl, bulk, err := startCluster(newDir(), cfg.seed, spec, in, reg)
		if err != nil {
			return nil, err
		}
		c = cl
		if err := c.dialReplay(); err != nil {
			return nil, err
		}
		st := &scatterTrace{t: newTracer(), checkReplay: !spec.ingest}
		w0 := c.wireCounts()
		dec0, skip0, _ := c.storeCounts()
		reg0, rt0 := readReg(reg), readRuntime()
		in.corpus = nil
		asks, ing = c.window(spec, in, window/2, st)
		rt1 := readRuntime()
		w1 := c.wireCounts()
		dec1, skip1, wal := c.storeCounts()
		scatterLayer(oc.layer, asks, st, w0, w1, dec1-dec0, skip1-skip0)
		writeLayer(oc.layer, ing, reg0, readReg(reg))
		runtimeLayer(oc.layer, rt0, rt1, asks.asks)
		oc.layer["docstore.bulk_load_s"] = bulk.Seconds()
		oc.layer["docstore.wal_bytes"] = float64(wal)
		oc.layer["harness.trace_overhead_frac"] = ratio(asks.rate()-plain.rate(), plain.rate())
		oc.check("replay layer errors", countErr(st.replayErrs, st.firstErr))
		if st.checkReplay {
			oc.check(fmt.Sprintf("in-window replay merge equals Router.Ask (%d compared)", st.replaysCompared),
				countErr(st.replayMismatch, fmt.Errorf("%d of %d replays differ", st.replayMismatch, st.replaysCompared)))
		}
		if err := writeTrace(cfg, st.t, scatterBudget(cfg.workload, oc.layer, median(st.askUs)), cfg.out); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	oc.attempted = asks.asks + ing.batches
	oc.failed = asks.failed + ing.failed
	oc.check("window asks complete (no error, no partial)", countErr(asks.failed, fmt.Errorf("%d of %d asks failed", asks.failed, asks.asks)))
	oc.check("ingest batches acknowledged", countErr(ing.failed, fmt.Errorf("%d of %d batches failed", ing.failed, ing.batches)))
	oc.e2e["ask_p50_ms"] = asks.p(0.5)
	oc.askReport(asks)
	if spec.ingest {
		oc.ingestReport(ing)
	}
	for _, st := range c.stores {
		if err := waitCompaction(st, spec.compactAfter); err != nil {
			return nil, err
		}
	}
	oc.e2e["heap_live_mb"] = liveHeapMB()
	oc.e2e["rss_peak_mb"] = peakRSSMB()

	regen()
	if c.replayClients == nil {
		if err := c.dialReplay(); err != nil {
			return nil, err
		}
	}
	acked := append(append([]*docstore.Document(nil), in.corpus...), ing.acked...)
	if err := checkScatter(cfg, oc, c, spec, in, acked); err != nil {
		return nil, err
	}
	// Recovery: close everything, then reopen every shard directory.
	before := make([][][]docstore.Hit, len(c.stores))
	for i, st := range c.stores {
		for _, q := range in.pool {
			before[i] = append(before[i], st.SearchText(q, spec.k))
		}
	}
	opts := c.opts
	err := c.close()
	c = nil
	if err != nil {
		return nil, fmt.Errorf("closing cluster: %w", err)
	}
	var disk, user int64
	for _, o := range opts {
		n, err := dirBytes(o.Dir)
		if err != nil {
			return nil, err
		}
		disk += n
	}
	for _, d := range acked {
		user += userBytes(d)
	}
	oc.e2e["space_amp"] = ratio(float64(disk), float64(user))
	rec, err := recoverShards(oc, opts, in.pool, spec.k, acked, before)
	if err != nil {
		return nil, err
	}
	oc.e2e["recovery_cpu_s"] = rec
	return oc, nil
}

// scatterLayer fills the read-path layer metrics of a traced window.
func scatterLayer(layer map[string]float64, asks *askLog, st *scatterTrace, w0, w1 wireSample, decoded, skipped uint64) {
	n := float64(asks.asks)
	layer["shard.fanout_per_ask"] = ratio(float64(asks.fanout), n)
	layer["shard.pruned_per_ask"] = ratio(float64(asks.pruned), n)
	layer["shard.hedges_per_ask"] = ratio(float64(asks.hedges), n)
	// Every server frame in the window answers one request: a query
	// (counted by Served) or a TermStats. Taking away the replay's own
	// TermStats leaves the router's TermStats round-trips.
	routerStats := int64(w1.serverFrames-w0.serverFrames) - int64(w1.served-w0.served) - int64(len(st.statsRttUs))
	miss := ratio(float64(max(routerStats, 0)), n)
	layer["shard.stats_miss_per_ask"] = miss
	self := make([]float64, len(st.askUs))
	for i := range st.askUs {
		self[i] = max(st.askUs[i]-st.slowestUs[i]-min(miss, 1)*st.statsUs[i], 0)
	}
	layer["shard.self_us"] = median(self)
	layer["shard.merge_us"] = median(st.mergeUs)
	layer["transport.query_rtt_us"] = median(st.queryUs)
	layer["transport.wire_us"] = median(st.wireUs)
	layer["transport.termstats_rtt_us"] = median(st.statsRttUs)
	layer["transport.frames_per_flush"] = ratio(float64(w1.frames-w0.frames), float64(w1.flushes-w0.flushes))
	layer["wire.codec_us"] = median(st.codecUs)
	layer["wire.bytes_per_ask"] = mean(st.bytesAsk)
	layer["docstore.search_us"] = median(st.searchUs)
	layer["docstore.termstats_us"] = median(st.statsLocalUs)
	layer["docstore.blocks_skipped_frac"] = ratio(float64(skipped), float64(decoded+skipped))
}

// scatterBudget is the per-layer self-time view of one scatter ask.
func scatterBudget(workload string, l map[string]float64, askP50 float64) string {
	return budgetTable(workload, askP50, []budgetRow{
		{"shard", "shard.self_us", l["shard.self_us"]},
		{"shard", "shard.merge_us", l["shard.merge_us"]},
		{"transport", "transport.wire_us - codec", max(l["transport.wire_us"]-l["wire.codec_us"], 0)},
		{"wire", "wire.codec_us", l["wire.codec_us"]},
		{"docstore", "docstore.search_us", l["docstore.search_us"]},
		{"docstore", "termstats (x miss/ask)", l["shard.stats_miss_per_ask"] * l["transport.termstats_rtt_us"]},
	}, l["harness.trace_overhead_frac"])
}

func countErr(n int64, err error) error {
	if n == 0 {
		return nil
	}
	return err
}
