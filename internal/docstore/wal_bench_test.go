package docstore

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The PutParallel benchmarks measure the tentpole claim of the group-commit
// pipeline: writer throughput and latency when many writers share fsyncs.
// Each pair runs the same workload two ways —
//
//	BenchmarkPutParallelN           writers call Put concurrently; the
//	                                committer batches every writer waiting in
//	                                the window behind ONE fsync,
//	BenchmarkPutParallelNSerialized the same store with an external
//	                                sync.Mutex around every Put, so at most
//	                                one op is ever in flight and every op
//	                                pays its own fsync — the seed's
//	                                serialized write path.
//
// Both run the durable SyncEveryPut configuration (the TCP node's), where
// the fsync dominates and amortization is the whole effect. Reported
// metrics: writer-side p50/p99 per-op latency and wal-syncs/op read from
// the telemetry registry (1.0 for serialized; 1/window-size under group
// commit). `make bench-wal` archives them into BENCH_wal.json.

func benchmarkPutParallel(b *testing.B, writers int, serialized bool) {
	// Same rationale as benchmarkSearchParallel: give every writer plus the
	// committer its own P so window formation reflects kernel scheduling,
	// not Go round-robin on a starved runner. Both variants of a pair run
	// with the same setting.
	if procs := writers + 1; runtime.GOMAXPROCS(0) < procs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	reg := telemetry.NewRegistry()
	s, err := Open(Options{
		Dir: b.TempDir(), ConceptDim: 8, Seed: 1,
		SyncEveryPut: true, QueryCacheSize: -1, Telemetry: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	// Pre-generate every document so the timed region is Put alone.
	perWriter := b.N / writers
	if perWriter == 0 {
		perWriter = 1
	}
	docs := make([][]*Document, writers)
	for w := range docs {
		r := rand.New(rand.NewSource(int64(1000 + w)))
		docs[w] = make([]*Document, perWriter)
		for i := range docs[w] {
			d := benchDoc(r, w*perWriter+i)
			docs[w][i] = d
		}
	}
	var serialize sync.Mutex // only the serialized variant takes it
	syncs := reg.Counter("docstore.wal.syncs")
	syncsBefore := syncs.Value()
	lats := make([][]time.Duration, writers)
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		lats[w] = make([]time.Duration, 0, perWriter)
		go func(w int) {
			defer wg.Done()
			for _, d := range docs[w] {
				t0 := time.Now()
				if serialized {
					serialize.Lock()
				}
				err := s.Put(d)
				if serialized {
					serialize.Unlock()
				}
				if err != nil {
					b.Error(err)
					return
				}
				lats[w] = append(lats[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	total := 0
	var all []time.Duration
	for _, l := range lats {
		total += len(l)
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	b.ReportMetric(quantileNs(all, 0.50), "p50-ns/op")
	b.ReportMetric(quantileNs(all, 0.99), "p99-ns/op")
	b.ReportMetric(float64(syncs.Value()-syncsBefore)/float64(total), "wal-syncs/op")
}

func BenchmarkPutParallel1(b *testing.B)            { benchmarkPutParallel(b, 1, false) }
func BenchmarkPutParallel4(b *testing.B)            { benchmarkPutParallel(b, 4, false) }
func BenchmarkPutParallel16(b *testing.B)           { benchmarkPutParallel(b, 16, false) }
func BenchmarkPutParallel1Serialized(b *testing.B)  { benchmarkPutParallel(b, 1, true) }
func BenchmarkPutParallel4Serialized(b *testing.B)  { benchmarkPutParallel(b, 4, true) }
func BenchmarkPutParallel16Serialized(b *testing.B) { benchmarkPutParallel(b, 16, true) }

// BenchmarkWALReplay measures crash recovery: replaying a 2048-record log
// with the same unmarshal work Open performs. ReportAllocs makes the replay
// buffer reuse visible — allocations scale with documents decoded, not with
// a fresh payload buffer per record.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < benchCorpusSize; i++ {
		if err := s.Put(benchDoc(r, i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	_, walPath := snapshotPaths(dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		_, _, err := replayWAL(walPath, func(op uint8, payload []byte) error {
			if op == opPut {
				if _, err := unmarshalDocument(payload); err != nil {
					return err
				}
			}
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if n != benchCorpusSize {
			b.Fatalf("replayed %d records, want %d", n, benchCorpusSize)
		}
	}
}

// The BulkLoad benchmarks load 32k documents through one PutBatch into a
// fresh store, in memory and on disk (no per-put fsync). Both run the same
// commit window, so besides ns/op they report the deterministic publish
// counts — epochs/op and freezes/op — that must agree between the two:
// one epoch and one freeze per load.
const bulkLoadDocs = 32 << 10

func benchmarkBulkLoad(b *testing.B, durable bool) {
	r := rand.New(rand.NewSource(42))
	docs := make([]*Document, bulkLoadDocs)
	for i := range docs {
		docs[i] = benchDoc(r, i)
	}
	var epochs, freezes uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reg := telemetry.NewRegistry()
		opts := Options{ConceptDim: 8, Seed: 1, QueryCacheSize: -1, Telemetry: reg}
		if durable {
			opts.Dir = b.TempDir()
		}
		s, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		e0 := s.Epoch()
		b.StartTimer()
		if err := s.PutBatch(docs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		epochs += s.Epoch() - e0
		freezes += reg.Counter("docstore.snapshot.freezes").Value()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(epochs)/float64(b.N), "epochs/op")
	b.ReportMetric(float64(freezes)/float64(b.N), "freezes/op")
}

func BenchmarkBulkLoadInMemory(b *testing.B) { benchmarkBulkLoad(b, false) }
func BenchmarkBulkLoadDurable(b *testing.B)  { benchmarkBulkLoad(b, true) }

// BenchmarkReopen measures cold start of a compacted 16k-document store —
// the scatter shard size: each op opens the directory (loading the v2
// snapshot into the compiled base, replaying an empty WAL tail, publishing
// the first epoch) and closes it again. allocs/op counts what recovery
// builds.
func BenchmarkReopen(b *testing.B) {
	const n = 16 << 10
	r := rand.New(rand.NewSource(42))
	docs := make([]*Document, n)
	for i := range docs {
		docs[i] = benchDoc(r, i)
	}
	opts := Options{Dir: b.TempDir(), ConceptDim: 8, Seed: 1}
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PutBatch(docs); err != nil {
		b.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != n {
			b.Fatalf("reopened %d documents, want %d", s.Len(), n)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// The Freeze benchmarks time one freeze of an in-memory store holding n
// documents: untimed, a batch fills the overlay to its limit with
// replacements of random base documents; timed, one more Put pushes it
// over, and its commit window merges the overlay into a new base (and
// deep-clones the master's other structures). freezes/op must read 1.
func benchmarkFreeze(b *testing.B, n int) {
	r := rand.New(rand.NewSource(42))
	docs := make([]*Document, n)
	for i := range docs {
		docs[i] = benchDoc(r, i)
	}
	reg := telemetry.NewRegistry()
	s, err := Open(Options{ConceptDim: 8, Seed: 1, QueryCacheSize: -1, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PutBatch(docs); err != nil {
		b.Fatal(err)
	}
	freezes := reg.Counter("docstore.snapshot.freezes")
	fill := make([]*Document, overlayLimit(n))
	f0 := freezes.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range fill {
			fill[j] = benchDoc(r, r.Intn(n))
		}
		if err := s.PutBatch(fill); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Put(benchDoc(r, r.Intn(n))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(freezes.Value()-f0)/float64(b.N), "freezes/op")
}

func BenchmarkFreeze8k(b *testing.B)  { benchmarkFreeze(b, 8<<10) }
func BenchmarkFreeze32k(b *testing.B) { benchmarkFreeze(b, 32<<10) }
