package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// referenceIndex compiles a live set from scratch the way the store did
// before bases were merged: tokenize every document, build term -> doc -> tf
// maps, order ids and terms, sort each term's postings, encode. It shares
// only the codec with mergeIndex, which makes it an independent oracle for
// the merge.
func referenceIndex(live map[string]*Document) *compiledIndex {
	ids := make([]string, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	post := map[string]map[string]int{}
	cx := &compiledIndex{ords: map[string]uint32{}, terms: map[string]termPostings{}, fwdOff: []uint32{0}}
	for i, id := range ids {
		toks := live[id].Tokens()
		for _, t := range toks {
			if post[t] == nil {
				post[t] = map[string]int{}
			}
			post[t][id]++
		}
		cx.ids = append(cx.ids, id)
		cx.docs = append(cx.docs, live[id])
		cx.ords[id] = uint32(i)
		cx.docLens = append(cx.docLens, uint32(len(toks)))
		cx.norms = append(cx.norms, math.Sqrt(float64(len(toks))+1))
	}
	for t := range post {
		cx.termList = append(cx.termList, t)
	}
	sort.Strings(cx.termList)
	fwd := make([][]uint32, len(ids))
	for ti, t := range cx.termList {
		var es []postEntry
		for id, tf := range post[t] {
			es = append(es, postEntry{ord: cx.ords[id], tf: uint32(tf)})
		}
		slices.SortFunc(es, func(a, b postEntry) int { return int(int64(a.ord) - int64(b.ord)) })
		tm := termPostings{df: int32(len(es)), blockOff: int32(len(cx.blocks))}
		for s := 0; s < len(es); s += blockSize {
			blk := es[s:min(s+blockSize, len(es))]
			bm := blockMeta{off: uint32(len(cx.data)), firstOrd: blk[0].ord, lastOrd: blk[len(blk)-1].ord, count: uint16(len(blk))}
			for _, e := range blk {
				if r := (1 + math.Log(float64(e.tf))) / cx.norms[e.ord]; r > bm.maxRatio {
					bm.maxRatio = r
				}
			}
			cx.data = appendPostingsBlock(cx.data, blk)
			cx.blocks = append(cx.blocks, bm)
			tm.maxRatio = max(tm.maxRatio, bm.maxRatio)
		}
		tm.nBlocks = int32(len(cx.blocks)) - tm.blockOff
		cx.terms[t] = tm
		for _, e := range es {
			fwd[e.ord] = append(fwd[e.ord], uint32(ti))
		}
	}
	for _, f := range fwd {
		cx.fwdTerms = append(cx.fwdTerms, f...)
		cx.fwdOff = append(cx.fwdOff, uint32(len(cx.fwdTerms)))
	}
	return cx
}

// indexDiff names the first compiledIndex field where got and want differ,
// or returns "" when they are equal field for field (documents by content).
func indexDiff(got, want *compiledIndex) string {
	norm := func(s []uint32) []uint32 { // nil and empty are the same extent
		if len(s) == 0 {
			return nil
		}
		return s
	}
	fields := []struct {
		name string
		a, b any
	}{
		{"ids", got.ids, want.ids},
		{"docLens", got.docLens, want.docLens},
		{"norms", got.norms, want.norms},
		{"ords", got.ords, want.ords},
		{"termList", got.termList, want.termList},
		{"terms", got.terms, want.terms},
		{"blocks", got.blocks, want.blocks},
		{"data", got.data, want.data},
		{"fwdOff", got.fwdOff, want.fwdOff},
		{"fwdTerms", norm(got.fwdTerms), norm(want.fwdTerms)},
	}
	for _, f := range fields {
		if reflect.ValueOf(f.a).Len() == 0 && reflect.ValueOf(f.b).Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(f.a, f.b) {
			return f.name
		}
	}
	for i := range got.docs {
		if !bytes.Equal(got.docs[i].marshal(), want.docs[i].marshal()) {
			return fmt.Sprintf("docs[%d]", i)
		}
	}
	return ""
}

// liveDelta is a live set as mergeIndex input: every document, sorted by ID.
func liveDelta(live map[string]*Document) []deltaDoc {
	var delta []deltaDoc
	for _, d := range live {
		toks := d.Tokens()
		delta = append(delta, deltaDoc{doc: d, docLen: len(toks), terms: countTerms(toks)})
	}
	slices.SortFunc(delta, func(a, b deltaDoc) int { return strings.Compare(a.doc.ID, b.doc.ID) })
	return delta
}

// liveSet mirrors a store's live documents and, per distinct token, how
// many of them carry it.
type liveSet struct {
	docs map[string]*Document
	refs map[string]int
}

func newLiveSet() *liveSet {
	return &liveSet{docs: map[string]*Document{}, refs: map[string]int{}}
}

func (l *liveSet) put(d *Document) {
	l.del(d.ID)
	l.docs[d.ID] = d
	for _, e := range countTerms(d.Tokens()) {
		l.refs[e.t]++
	}
}

func (l *liveSet) del(id string) {
	d, ok := l.docs[id]
	if !ok {
		return
	}
	delete(l.docs, id)
	for _, e := range countTerms(d.Tokens()) {
		if l.refs[e.t]--; l.refs[e.t] == 0 {
			delete(l.refs, e.t)
		}
	}
}

// terms is the live set's distinct-token count.
func (l *liveSet) terms() int { return len(l.refs) }

// churnDoc is a shadowDoc that, one time in three, also carries a token no
// other document or version has, so replacing or deleting it makes a term
// vanish from the live set.
func churnDoc(r *rand.Rand, id string, v int) *Document {
	d := shadowDoc(r, id, int64(v))
	if r.Intn(3) == 0 {
		d.Text += fmt.Sprintf(" solo%sv%d", id, v)
	}
	return d
}

// churnCounts tallies what a churn did, by where the target id lived.
type churnCounts struct {
	replaceBase, deleteBase, deleteOverlay, vanished, freezes int
}

// runChurn drives s through steps random writes over a 400-id space —
// puts, replacements, deletes and occasional batches — mirroring them in
// live. After every write it calls check; frozen says whether that write
// published a new base.
func runChurn(t *testing.T, s *Store, reg *telemetry.Registry, live *liveSet, steps int, seed int64, check func(step int, frozen bool)) churnCounts {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var c churnCounts
	freezes := reg.Counter("docstore.snapshot.freezes")
	for step := 0; step < steps; step++ {
		sn := s.snap.Load()
		before := freezes.Value()
		terms := live.terms()
		id := fmt.Sprintf("c%03d", r.Intn(400))
		_, inBase := sn.base.docs[id]
		_, inOverlay := sn.ov.byID[id]
		switch op := r.Intn(10); {
		case op < 6:
			d := churnDoc(r, id, step)
			if err := s.Put(d); err != nil {
				t.Fatal(err)
			}
			if inBase && !sn.ov.masked[id] {
				c.replaceBase++
			}
			live.put(d)
		case op < 9:
			err := s.Delete(id)
			if _, ok := live.docs[id]; !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("delete of dead %s: %v", id, err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case inOverlay:
				c.deleteOverlay++
			case inBase:
				c.deleteBase++
			}
			live.del(id)
		default:
			batch := make([]*Document, 1+r.Intn(40))
			for i := range batch {
				bid := fmt.Sprintf("c%03d", r.Intn(400))
				batch[i] = churnDoc(r, bid, step*100+i)
				live.put(batch[i])
			}
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if live.terms() < terms {
			c.vanished++
		}
		frozen := freezes.Value() != before
		if frozen {
			c.freezes++
		}
		check(step, frozen)
	}
	return c
}

// TestMergedBaseMatchesRebuild is the oracle for mergeIndex on the write
// path: through a churn that replaces and deletes base documents, deletes
// overlay documents and makes terms vanish, every freeze's merged base
// equals — ids, lengths, norms, terms, block directory, arena bytes and
// forward index — both the map-driven reference compile of the live set and
// mergeIndex's own build of it from nothing. Stats().Terms equals the live
// set's distinct-token count after every write.
func TestMergedBaseMatchesRebuild(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(Options{ConceptDim: 8, Seed: 3, QueryCacheSize: -1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	live := newLiveSet()
	c := runChurn(t, s, reg, live, 1500, 11, func(step int, frozen bool) {
		if got, want := s.Stats().Terms, live.terms(); got != want {
			t.Fatalf("step %d: Stats().Terms = %d, live set has %d distinct terms", step, got, want)
		}
		if !frozen {
			return
		}
		cx := s.snap.Load().base.cx
		if f := indexDiff(cx, referenceIndex(live.docs)); f != "" {
			t.Fatalf("step %d: merged base differs from the reference compile in %s", step, f)
		}
		if f := indexDiff(cx, mergeIndex(nil, nil, liveDelta(live.docs))); f != "" {
			t.Fatalf("step %d: merged base differs from a build from nothing in %s", step, f)
		}
	})
	t.Logf("churn: %+v", c)
	if c.freezes < 5 || c.replaceBase == 0 || c.deleteBase == 0 || c.deleteOverlay == 0 || c.vanished == 0 {
		t.Fatalf("churn did not cover every case: %+v", c)
	}
}

// TestCompactMatchesBulkLoad: after the same churn on a durable store, the
// WAL tail merged at reopen equals the reference compile, Stats().Terms
// stays exact across the reopen, and the compacted snapshot file is
// byte-identical to the one a fresh store writes when bulk-loaded with the
// live set.
func TestCompactMatchesBulkLoad(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	opts := Options{Dir: dir, ConceptDim: 8, Seed: 3, QueryCacheSize: -1, Telemetry: reg}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	live := newLiveSet()
	runChurn(t, s, reg, live, 700, 12, func(int, bool) {})
	if err := s.Compact(); err != nil { // a base on disk, then a WAL tail over it
		t.Fatal(err)
	}
	runChurn(t, s, reg, live, 300, 13, func(int, bool) {})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opts.Telemetry = nil
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if f := indexDiff(s.snap.Load().base.cx, referenceIndex(live.docs)); f != "" {
		t.Fatalf("reopened base differs from the reference compile in %s", f)
	}
	if got, want := s.Stats().Terms, live.terms(); got != want {
		t.Fatalf("after reopen Stats().Terms = %d, want %d", got, want)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().Terms, live.terms(); got != want {
		t.Fatalf("after compacted reopen Stats().Terms = %d, want %d", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := Options{Dir: t.TempDir(), ConceptDim: 8, Seed: 3}
	f, err := Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*Document, 0, len(live.docs))
	for _, d := range live.docs {
		docs = append(docs, d)
	}
	if err := f.PutBatch(docs); err != nil {
		t.Fatal(err)
	}
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	churned, _ := snapshotPaths(dir)
	bulk, _ := snapshotPaths(fresh.Dir)
	a, err := os.ReadFile(churned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(bulk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("compacted snapshot (%d bytes) differs from the bulk-loaded one (%d bytes)", len(a), len(b))
	}
}

// TestRecoveryHistograms pins the recovery split: every durable Open
// observes docstore.snapshot.load (the compiled-base load) and
// docstore.wal.replay (the tail replay and its merge) exactly once; an
// in-memory store observes neither.
func TestRecoveryHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, err := Open(Options{ConceptDim: 8, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(doc("m1", "gold ring", "", 1, nil)); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"docstore.snapshot.load", "docstore.wal.replay"} {
		if got := reg.Histogram(h).Count(); got != 0 {
			t.Fatalf("in-memory store: %s count %d, want 0", h, got)
		}
	}
	dir := t.TempDir()
	reg = telemetry.NewRegistry()
	for open := 1; open <= 3; open++ {
		s, err := Open(Options{Dir: dir, ConceptDim: 8, Seed: 1, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(doc(fmt.Sprintf("d%d", open), "gold ring", "", int64(open), nil)); err != nil {
			t.Fatal(err)
		}
		if open == 2 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for _, h := range []string{"docstore.snapshot.load", "docstore.wal.replay"} {
			if got := reg.Histogram(h).Count(); got != uint64(open) {
				t.Fatalf("after %d durable opens: %s count %d", open, h, got)
			}
		}
	}
}
