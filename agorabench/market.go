package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/feature"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// marketSpec sizes the market workload.
type marketSpec struct {
	docs, nodes, sessions, asks, k int
	batch                          int
	batchRate                      float64 // IngestBatch calls per second
	warmup                         int     // asks before the window
	setups                         int
	replayEvery                    int
	procs                          int
	sampled                        int // queries checked per node
}

func marketSpecFor(scale float64) marketSpec {
	s := marketSpec{
		docs: scaled(8192, scale, 256), nodes: 4, sessions: 16, asks: scaled(1024, scale, 32), k: 10,
		batch: 64, batchRate: 5, warmup: 64, setups: 3, replayEvery: 8, sampled: 64,
		// The ingester's in-memory writes get the second CPU, as on a
		// deployed node.
		procs: 2,
	}
	if scale < 1 {
		s.setups, s.warmup, s.sampled = 1, 8, 8
	}
	return s
}

type marketAsk struct {
	aql, text string
	concept   feature.Vector
}

type marketInputs struct {
	parts  [][]*docstore.Document // initial corpus per provider
	users  []workload.User
	asks   []marketAsk
	writes [][]*docstore.Document
}

func genMarket(seed int64, spec marketSpec, seconds float64) *marketInputs {
	g := workload.NewGenerator(seed, 32, 16)
	in := &marketInputs{}
	docs := g.GenCorpus(spec.docs, 1.1, int64(24*time.Hour))
	for _, part := range g.AssignToSources(docs, spec.nodes, 0) {
		var p []*docstore.Document
		for _, d := range part {
			p = append(p, d.Doc)
		}
		in.parts = append(in.parts, p)
	}
	in.users = g.GenUsers(spec.sessions)
	for i := 0; i < spec.asks; i++ {
		text, concept, _ := g.QueryFor(in.users[i%len(in.users)])
		in.asks = append(in.asks, marketAsk{
			aql:  fmt.Sprintf(`FIND documents WHERE text ~ %q TOP %d`, text, spec.k),
			text: text, concept: concept,
		})
	}
	in.writes = genBatches(g, int(spec.batchRate*seconds)+1, spec.batch)
	return in
}

// market is the in-process agora: providers with in-memory stores and the
// consumer sessions asking them.
type market struct {
	a        *core.Agora
	nodes    []*core.Node
	sessions []*core.Session
	reg      *telemetry.Registry
	// docs holds every document each provider acknowledged, in order.
	docs [][]*docstore.Document
}

// behavior is a provider that always answers, honours its contracts and
// has a fixed simulated latency, so no ask fails by design.
var behavior = core.NodeBehavior{Reliability: 1, BaseLatency: 200 * time.Millisecond, Availability: 1}

func startMarket(seed int64, spec marketSpec, in *marketInputs, reg *telemetry.Registry) (*market, time.Duration, error) {
	m := &market{a: core.New(core.Config{Seed: seed, ConceptDim: 32, Telemetry: reg}), reg: reg}
	var bulk time.Duration
	for i := 0; i < spec.nodes; i++ {
		n, err := m.a.AddNode(workload.SourceName(i), core.DefaultEconomics(), behavior)
		if err != nil {
			return nil, 0, err
		}
		if reg != nil {
			// The traced run gives the provider store the registry it
			// accepts: the same options AddNode uses, plus Telemetry.
			st, err := docstore.Open(docstore.Options{ConceptDim: 32, Seed: seed + int64(i), Telemetry: reg})
			if err != nil {
				return nil, 0, err
			}
			old := n.Store
			n.Store = st
			if err := old.Close(); err != nil {
				return nil, 0, err
			}
		}
		m.nodes = append(m.nodes, n)
		t0 := time.Now()
		if err := n.IngestBatch(in.parts[i]); err != nil {
			return nil, 0, fmt.Errorf("bulk load %s: %w", n.Name, err)
		}
		bulk += time.Since(t0)
		m.docs = append(m.docs, stamped(in.parts[i], n.Name))
	}
	for _, u := range in.users {
		p := profile.New(u.ID, 32)
		p.Interests = u.Concept.Clone()
		m.sessions = append(m.sessions, m.a.NewSession(p))
	}
	for i := 0; i < spec.warmup; i++ {
		a := in.asks[i%len(in.asks)]
		if _, err := m.sessions[i%len(m.sessions)].Ask(a.aql, a.concept); err != nil {
			return nil, 0, fmt.Errorf("warm-up ask: %w", err)
		}
	}
	return m, bulk, nil
}

// stamped copies docs with the provenance IngestBatch gives them.
func stamped(docs []*docstore.Document, name string) []*docstore.Document {
	out := make([]*docstore.Document, len(docs))
	for i, d := range docs {
		if d.Provenance == "" {
			d = d.Clone()
			d.Provenance = name
		}
		out[i] = d
	}
	return out
}

func (m *market) close() error {
	var first error
	for _, n := range m.nodes {
		if err := n.Store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// marketTrace accumulates the traced run's spans and replays.
type marketTrace struct {
	t         *tracer
	askUs     []float64
	parseUs   []float64
	overheadU []float64
}

// window runs the asker beside the ingester for d.
func (m *market) window(seed int64, spec marketSpec, in *marketInputs, d time.Duration, mt *marketTrace) (*askLog, *ingestLog) {
	asks, ing := newAskLog(), &ingestLog{}
	start := asks.start
	deadline := start.Add(d)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.askLoop(seed, spec, in, deadline, asks, mt)
	}()
	interval := time.Duration(float64(time.Second) / spec.batchRate)
	next := 0
	ingestLoop(in.writes, interval, deadline, func(b []*docstore.Document) error {
		i := next % len(m.nodes)
		next++
		return m.write(i, b, ing, mt)
	}, ing)
	<-done
	asks.elapsed = time.Since(start)
	return asks, ing
}

func (m *market) askLoop(seed int64, spec marketSpec, in *marketInputs, deadline time.Time, log *askLog, mt *marketTrace) {
	zipf := sim.NewZipfSource(rand.New(rand.NewSource(seed+7)), 1.1, len(in.asks))
	for i := 0; time.Now().Before(deadline); i++ {
		a := in.asks[zipf.Next()]
		t0 := time.Now()
		_, err := m.sessions[i%len(m.sessions)].Ask(a.aql, a.concept)
		t1 := time.Now()
		log.add(t1.Sub(t0), err == nil, nil)
		if mt != nil && i%spec.replayEvery == 0 {
			askID := mt.t.id()
			mt.t.record(askID, 0, askID, "core.ask", t0, t1)
			p0 := time.Now()
			_, perr := query.Parse(a.aql)
			p1 := time.Now()
			mt.t.child(0, askID, "query.parse", p0, p1)
			if perr == nil {
				mt.askUs = append(mt.askUs, us(t1.Sub(t0)))
				mt.parseUs = append(mt.parseUs, us(p1.Sub(p0)))
			}
		}
	}
}

// write sends one batch to provider i through Node.IngestBatch. Traced
// runs split the call into the store write (the docstore.put histogram's
// sum moves only by this call: the ingester is the only writer) and the
// rest, the advertisement and feed publish.
func (m *market) write(i int, b []*docstore.Document, ing *ingestLog, mt *marketTrace) error {
	n := m.nodes[i]
	put := m.reg.Histogram("docstore.put")
	freezes := m.reg.Counter("docstore.snapshot.freezes")
	e0, f0, s0 := n.Store.Epoch(), freezes.Value(), put.Snapshot().Sum
	t0 := time.Now()
	err := n.IngestBatch(b)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("ingest batch on %s: %w", n.Name, err)
	}
	m.docs[i] = append(m.docs[i], stamped(b, n.Name)...)
	if mt != nil {
		putD := time.Duration((put.Snapshot().Sum - s0) * float64(time.Second))
		ing.storeWrite(putD, n.Store.Epoch()-e0, freezes.Value()-f0)
		id := mt.t.child(0, 0, "core.ingest_batch", t0, t1)
		mt.t.child(id, 0, "docstore.put_batch", t0, t0.Add(putD))
		mt.overheadU = append(mt.overheadU, us(t1.Sub(t0)-putD))
	}
	return nil
}

func runMarket(cfg *config) (*outcome, error) {
	spec := marketSpecFor(cfg.scale)
	pinProcs(spec.procs)
	oc := newOutcome()
	in := genMarket(cfg.seed, spec, cfg.seconds)
	window := time.Duration(cfg.seconds * float64(time.Second))
	var userBase int64
	for _, p := range in.parts {
		for _, d := range p {
			userBase += userBytes(d)
		}
	}
	var m *market
	defer func() {
		if m != nil {
			_ = m.close() // error paths only; the success path closes and checks
		}
	}()
	var asks *askLog
	var ing *ingestLog
	var heapBase float64
	if !cfg.trace {
		var setups []float64
		for i := 0; i < spec.setups; i++ {
			if m != nil {
				if err := m.close(); err != nil {
					return nil, err
				}
				m = nil
				releaseMemory()
			}
			heapBase = liveHeapMB()
			t0 := time.Now()
			mk, _, err := startMarket(cfg.seed, spec, in, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			m = mk
		}
		oc.e2e["setup_s"] = median(setups)
		asks, ing = m.window(cfg.seed, spec, in, window, nil)
	} else {
		mk, _, err := startMarket(cfg.seed, spec, in, nil)
		if err != nil {
			return nil, err
		}
		plain, _ := mk.window(cfg.seed, spec, in, window/2, nil)
		if err := mk.close(); err != nil {
			return nil, err
		}
		reg := telemetry.NewRegistry()
		mk, bulk, err := startMarket(cfg.seed, spec, in, reg)
		if err != nil {
			return nil, err
		}
		m = mk
		mt := &marketTrace{t: newTracer()}
		reg0, rt0 := readReg(reg), readRuntime()
		asks, ing = m.window(cfg.seed, spec, in, window/2, mt)
		rt1 := readRuntime()
		writeLayer(oc.layer, ing, reg0, readReg(reg))
		runtimeLayer(oc.layer, rt0, rt1, asks.asks)
		marketLayer(oc.layer, reg, mt)
		oc.layer["docstore.bulk_load_s"] = bulk.Seconds()
		oc.layer["harness.trace_overhead_frac"] = ratio(asks.rate()-plain.rate(), plain.rate())
		rows := []budgetRow{
			{"query", "query.parse_us", oc.layer["query.parse_us"]},
			{"core", "core.plan_us", oc.layer["core.plan_us"]},
			{"core", "core.negotiate_us", oc.layer["core.negotiate_us"]},
			{"core", "core.execute_us", oc.layer["core.execute_us"]},
			{"docstore", "docstore.search_us", oc.layer["docstore.search_us"]},
			{"core", "core.merge_us", oc.layer["core.merge_us"]},
		}
		if err := writeTrace(cfg, mt.t, budgetTable(cfg.workload, median(mt.askUs), rows, oc.layer["harness.trace_overhead_frac"]), cfg.out); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	oc.attempted = asks.asks + ing.batches
	oc.failed = asks.failed + ing.failed
	oc.check("window asks answered without error", countErr(asks.failed, fmt.Errorf("%d of %d asks failed", asks.failed, asks.asks)))
	oc.check("ingest batches acknowledged", countErr(ing.failed, fmt.Errorf("%d of %d batches failed", ing.failed, ing.batches)))
	oc.e2e["ask_p50_ms"] = asks.p(0.5)
	oc.askReport(asks)
	oc.ingestReport(ing)
	heapEnd := liveHeapMB()
	oc.e2e["heap_live_mb"] = heapEnd
	oc.e2e["rss_peak_mb"] = peakRSSMB()
	userAll := userBase
	for _, d := range ing.acked {
		userAll += userBytes(d)
	}
	// In-memory providers hold their data on the heap: their space
	// amplification is the heap the market added over the user bytes.
	oc.e2e["space_amp"] = ratio((heapEnd-heapBase)*(1<<20), float64(userAll))

	checkMarket(oc, m, spec, in)
	rec, err := reloadMarket(cfg.seed, oc, m, spec, in)
	if err != nil {
		return nil, err
	}
	oc.e2e["recovery_cpu_s"] = rec
	err = m.close()
	m = nil
	return oc, err
}

// marketLayer fills the core, query and read-side docstore metrics from
// the registry histograms the program exports.
func marketLayer(layer map[string]float64, reg *telemetry.Registry, mt *marketTrace) {
	p50us := func(name string) float64 { return reg.Histogram(name).Snapshot().P50 * 1e6 }
	layer["core.plan_us"] = p50us("core.plan.latency")
	layer["core.negotiate_us"] = p50us("core.negotiate.latency")
	layer["core.execute_us"] = p50us("core.execute.latency")
	layer["core.merge_us"] = p50us("core.merge.latency")
	hits := float64(reg.Counter("core.execute.cache.hits").Value())
	misses := float64(reg.Counter("core.execute.cache.misses").Value())
	layer["core.exec_cache_hit_frac"] = ratio(hits, hits+misses)
	layer["core.negotiate_fail_frac"] = ratio(float64(reg.Counter("core.negotiate.failures").Value()),
		float64(reg.Histogram("core.negotiate.latency").Count()))
	layer["core.ingest_overhead_us"] = median(mt.overheadU)
	layer["query.parse_us"] = median(mt.parseUs)
	search := reg.Histogram("docstore.search.hybrid").Snapshot()
	if text := reg.Histogram("docstore.search.text").Snapshot(); text.Count > search.Count {
		search = text
	}
	layer["docstore.search_us"] = search.P50 * 1e6
}

// checkMarket checks every provider's ranked search against the
// exhaustive reference on sampled queries.
func checkMarket(oc *outcome, m *market, spec marketSpec, in *marketInputs) {
	var t tally
	for _, n := range m.nodes {
		for i := 0; i < spec.sampled; i++ {
			q := in.asks[i*len(in.asks)/spec.sampled].text
			t.add(n.Name+": "+q, sameHits(n.Store.SearchText(q, spec.k), n.Store.SearchTextExhaustive(q, spec.k)))
		}
	}
	oc.check(fmt.Sprintf("provider SearchText equals SearchTextExhaustive (%d nodes x %d queries)", len(m.nodes), spec.sampled), t.err())
}

// reloadMarket times the recovery of in-memory providers, which have no
// log: a fresh store per provider reloaded with every document it
// acknowledged, until each has answered once, and returns the median CPU
// time of a round, as recoverShards does. It checks that every
// acknowledged document is readable and that sampled queries answer as the
// live providers do.
func reloadMarket(seed int64, oc *outcome, m *market, spec marketSpec, in *marketInputs) (float64, error) {
	stores, wall, cpu, err := timeRecoveries(func(stores *[]*docstore.Store) error {
		for i := range m.nodes {
			st, err := docstore.Open(docstore.Options{ConceptDim: 32, Seed: seed + int64(i)})
			if err != nil {
				return err
			}
			*stores = append(*stores, st)
			if err := st.PutBatch(m.docs[i]); err != nil {
				return fmt.Errorf("reload %s: %w", m.nodes[i].Name, err)
			}
			st.SearchText(in.asks[0].text, spec.k)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	defer closeStores(&stores)
	var readable, answers tally
	docs := 0
	for i, st := range stores {
		for _, d := range m.docs[i] {
			_, err := st.Get(d.ID)
			readable.add(d.ID, err)
			docs++
		}
		for j := 0; j < spec.sampled; j++ {
			q := in.asks[j*len(in.asks)/spec.sampled].text
			answers.add(q, sameHits(st.SearchText(q, spec.k), m.nodes[i].Store.SearchText(q, spec.k)))
		}
	}
	oc.check(fmt.Sprintf("every acknowledged doc readable after reload (%d docs)", docs), readable.err())
	oc.check("sampled answers identical after reload", answers.err())
	oc.recoveryReport(wall, cpu)
	return median(cpu), closeStores(&stores)
}
