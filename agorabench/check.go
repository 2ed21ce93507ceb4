package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/docstore"
	"repro/internal/wire"
)

// Correctness checks. Every comparison is bit-exact: same document IDs in
// the same order with the same float64 score bits.

func sameItems(got, want []wire.ResultItem) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: %s/%v, want %s/%v", i, got[i].DocID, got[i].Score, want[i].DocID, want[i].Score)
		}
	}
	return nil
}

func itemsMatchHits(got []wire.ResultItem, want []docstore.Hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].Doc.ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: %s/%v, want %s/%v", i, got[i].DocID, got[i].Score, want[i].Doc.ID, want[i].Score)
		}
	}
	return nil
}

func sameHits(got, want []docstore.Hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Doc.ID != want[i].Doc.ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("rank %d: %s/%v, want %s/%v", i, got[i].Doc.ID, got[i].Score, want[i].Doc.ID, want[i].Score)
		}
	}
	return nil
}

// tally counts failed comparisons and keeps the first failure.
type tally struct {
	n, bad int
	first  error
}

func (t *tally) add(what string, err error) {
	t.n++
	if err != nil {
		t.bad++
		if t.first == nil {
			t.first = fmt.Errorf("%s: %w", what, err)
		}
	}
}

func (t *tally) err() error {
	if t.bad == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d differ; first: %w", t.bad, t.n, t.first)
}

// checkScatter runs the post-window checks on a quiet cluster: router
// answers against a monolithic store holding every acknowledged document,
// and the layer-by-layer replay against the router.
func checkScatter(cfg *config, oc *outcome, c *cluster, spec scatterSpec, in *scatterInputs, acked []*docstore.Document) error {
	// The router serves from per-shard statistics cached by epoch and
	// flushes a shard's entry when it answers from a newer epoch, so one
	// pass over the pool settles it after the last write.
	var settle tally
	for _, q := range in.pool {
		res := c.router.Ask(q, spec.k)
		if res.Partial {
			settle.add(q, fmt.Errorf("partial: %v", res.Errors))
		} else {
			settle.add(q, nil)
		}
	}
	oc.check("settling pass complete", settle.err())

	// Reference: one store fed the same documents. It is durable without
	// fsync because the in-memory write path publishes once per document
	// and takes minutes at this size; its search code is the same.
	mono, err := docstore.Open(docstore.Options{Dir: filepath.Join(cfg.dataDir, "reference"), ConceptDim: 32, Seed: cfg.seed})
	if err != nil {
		return fmt.Errorf("open reference: %w", err)
	}
	defer mono.Close()
	if err := mono.PutBatch(acked); err != nil {
		return fmt.Errorf("load reference: %w", err)
	}
	var ident, replay tally
	for _, q := range in.pool {
		res := c.router.Ask(q, spec.k)
		ident.add(q, itemsMatchHits(res.Items, mono.SearchTextExhaustive(q, spec.k)))
		r, err := c.replayAsk(q, spec.k, nil, 0, 0)
		if err == nil {
			err = sameItems(r.merged, res.Items)
		}
		replay.add(q, err)
	}
	oc.check(fmt.Sprintf("router answers bit-identical to monolithic SearchTextExhaustive (%d queries, %d docs)", len(in.pool), len(acked)), ident.err())
	oc.check(fmt.Sprintf("replayed MergeTopK equals Router.Ask with no write in flight (%d queries)", len(in.pool)), replay.err())
	return nil
}

// recoveries is how many times a run recovers its stores; recovery_cpu_s
// is the median of their CPU times.
const recoveries = 7

// closeStores closes and forgets every store in *stores.
func closeStores(stores *[]*docstore.Store) error {
	var first error
	for _, st := range *stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	*stores = nil
	return first
}

// timeRecoveries runs open recoveries times and returns the stores of the
// last round with the wall and CPU time of every round. A round starts
// from a heap collected and handed back to the OS, as a restarted
// process's would be, so it faults in every page it uses; it runs with
// the collector held off and ends, still timed, with one full collection,
// so it pays once for marking the heap it built. Left to the pacer, a
// scatter-read round ran one collection or two, depending on where the
// heap goal fell, and its CPU time jumped between 0.31 and 0.47 s within
// a run; with the collector off but pages kept, a market round's page
// faults ranged from 5k to 117k.
func timeRecoveries(open func(stores *[]*docstore.Store) error) (stores []*docstore.Store, wall, cpu []float64, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for r := 0; r < recoveries; r++ {
		if err := closeStores(&stores); err != nil {
			return nil, nil, nil, err
		}
		debug.FreeOSMemory()
		t0, c0 := time.Now(), cpuSeconds()
		if err := open(&stores); err != nil {
			closeStores(&stores)
			return nil, nil, nil, err
		}
		runtime.GC()
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, cpuSeconds()-c0)
	}
	return stores, wall, cpu, nil
}

// recoverShards reopens every shard directory, timing each round until
// every store has answered once, and returns the median CPU time of a
// round. It also checks that every acknowledged document is readable and
// that the pool answers as it did before the close.
func recoverShards(oc *outcome, opts []docstore.Options, pool []string, k int, acked []*docstore.Document, before [][][]docstore.Hit) (float64, error) {
	stores, wall, cpu, err := timeRecoveries(func(stores *[]*docstore.Store) error {
		for _, o := range opts {
			o.Telemetry = nil
			st, err := docstore.Open(o)
			if err != nil {
				return fmt.Errorf("reopen %s: %w", o.Dir, err)
			}
			*stores = append(*stores, st)
			st.SearchText(pool[0], k)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	defer closeStores(&stores)

	var readable, answers tally
	for _, d := range acked {
		var err error = fmt.Errorf("not found")
		for _, st := range stores {
			if _, gerr := st.Get(d.ID); gerr == nil {
				err = nil
				break
			}
		}
		readable.add(d.ID, err)
	}
	for i, st := range stores {
		for j, q := range pool {
			answers.add(q, sameHits(st.SearchText(q, k), before[i][j]))
		}
	}
	oc.check(fmt.Sprintf("every acknowledged doc readable after reopen (%d docs)", len(acked)), readable.err())
	oc.check("pool answers identical before and after reopen", answers.err())
	var walKiB []float64
	for _, st := range stores {
		walKiB = append(walKiB, float64(st.Stats().WALBytes)/1024)
	}
	oc.report = append(oc.report, fmt.Sprintf("WAL replayed per shard on reopen (KiB, not gated): %.1f", walKiB))
	oc.recoveryReport(wall, cpu)
	return median(cpu), closeStores(&stores)
}
