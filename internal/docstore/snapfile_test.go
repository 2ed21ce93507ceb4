package docstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// rawTerm is one term of a hand-built snapshot payload: its declared df and
// the postings actually encoded, in blocks of blockSize, whether or not the
// two agree.
type rawTerm struct {
	term string
	df   int
	post []postEntry
}

// rawPayload encodes a v2 snapshot payload verbatim from its parts, with no
// validation, so tests can build files that break one invariant at a time.
func rawPayload(ids []string, terms []rawTerm) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		raw := (&Document{ID: id, Title: id}).marshal()
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
		buf = append(buf, raw...)
	}
	for range ids {
		buf = binary.AppendUvarint(buf, 2)
	}
	buf = binary.AppendUvarint(buf, uint64(len(terms)))
	for _, rt := range terms {
		buf = binary.AppendUvarint(buf, uint64(len(rt.term)))
		buf = append(buf, rt.term...)
		buf = binary.AppendUvarint(buf, uint64(rt.df))
		for s := 0; s < len(rt.post); s += blockSize {
			buf = appendPostingsBlock(buf, rt.post[s:min(s+blockSize, len(rt.post))])
		}
	}
	return buf
}

func fuzzState() *state {
	return newState(Options{ConceptDim: 8, LSHTables: 2, LSHBits: 4, Seed: 1})
}

// TestLoadSnapshotRejects pins the loader's validation: each file breaks
// one invariant the query-time cursors rely on, and each must fail at load
// rather than panic in a search later.
func TestLoadSnapshotRejects(t *testing.T) {
	ids := make([]string, 300)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%03d", i)
	}
	run := func(from, n, step int) []postEntry {
		var ps []postEntry
		for i := 0; i < n; i++ {
			ps = append(ps, postEntry{ord: uint32(from + i*step), tf: 1})
		}
		return ps
	}
	valid := []rawTerm{{"amber", 3, run(0, 3, 1)}, {"gold", 200, run(0, 200, 1)}}
	cases := []struct {
		name  string
		ids   []string
		terms []rawTerm
		want  string
	}{
		{"ids descending", []string{"b", "a"}, nil, "not above"},
		{"ids repeated", []string{"a", "a"}, nil, "not above"},
		{"empty id", []string{""}, nil, "not above"},
		{"terms descending", ids, []rawTerm{{"gold", 1, run(0, 1, 1)}, {"amber", 1, run(0, 1, 1)}}, "not above"},
		{"terms repeated", ids, []rawTerm{{"gold", 1, run(0, 1, 1)}, {"gold", 1, run(1, 1, 1)}}, "not above"},
		{"df above postings", ids, []rawTerm{{"amber", 4, run(0, 3, 1)}}, "corrupt snapshot"},
		{"df below postings", ids, []rawTerm{{"amber", 2, run(0, 3, 1)}}, "corrupt snapshot"},
		{"df above docs", ids[:2], []rawTerm{{"amber", 3, run(0, 3, 1)}}, "df 3 of 2"},
		{"ordinals restart across blocks", ids, []rawTerm{{"gold", 200, append(run(0, 128, 2), run(10, 72, 1)...)}}, "ordinals"},
		{"ordinal repeated across blocks", ids, []rawTerm{{"gold", 200, append(run(0, 128, 1), run(127, 72, 1)...)}}, "ordinals"},
		{"ordinal past docs", ids[:10], []rawTerm{{"amber", 2, []postEntry{{0, 1}, {10, 1}}}}, "ordinals"},
		{"ordinal past docs in a later block", ids[:200], []rawTerm{{"gold", 130, append(run(0, 128, 1), postEntry{199, 1}, postEntry{250, 1})}}, "ordinals"},
	}
	if _, err := decodeSnapshot(rawPayload(ids, valid), fuzzState()); err != nil {
		t.Fatalf("valid hand-built snapshot: %v", err)
	}
	for _, c := range cases {
		_, err := decodeSnapshot(rawPayload(c.ids, c.terms), fuzzState())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// fuzzAllocBound is the most a load may allocate for a payload of n bytes:
// every size the loader allocates is backed by bytes of the payload, so the
// total stays within a constant factor of it. The factor covers a
// document's in-memory form (struct, maps, skiplist node, LSH entry)
// against the ~20 bytes its smallest record takes.
func fuzzAllocBound(n int) uint64 { return 1<<20 + 256*uint64(n) }

// FuzzLoadSnapshot feeds arbitrary payloads to the v2 loader's decoder —
// past the magic and checksum, which a mutation would almost always
// break. A load must
// never panic, its allocations stay bounded by the input size, and every
// file it accepts must answer SearchText and SearchTextExhaustive alike
// and survive a write/load round trip unchanged. `make fuzz-codec` runs a
// fixed number of iterations in CI; for a longer search run
// `go test -fuzz FuzzLoadSnapshot ./internal/docstore`.
func FuzzLoadSnapshot(f *testing.F) {
	// A real compacted store, after deletes and replacements.
	dir := f.TempDir()
	s, err := Open(Options{Dir: dir, ConceptDim: 8, LSHTables: 2, LSHBits: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		if err := s.Put(churnDoc(r, fmt.Sprintf("c%03d", r.Intn(200)), i)); err != nil {
			f.Fatal(err)
		}
		if i%7 == 0 {
			_ = s.Delete(fmt.Sprintf("c%03d", r.Intn(200))) // a dead id returns ErrNotFound
		}
	}
	if err := s.Compact(); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	snapPath, _ := snapshotPaths(dir)
	file, err := os.ReadFile(snapPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file[len(snapMagic) : len(file)-4])
	// Small documents under terms of several blocks each.
	ids := make([]string, 300)
	every, odd := make([]postEntry, 300), make([]postEntry, 150)
	for i := range ids {
		ids[i] = fmt.Sprintf("%03d", i)
		every[i] = postEntry{ord: uint32(i), tf: uint32(1 + i%3)}
		if i%2 == 1 {
			odd[i/2] = postEntry{ord: uint32(i), tf: 1}
		}
	}
	f.Add(rawPayload(ids, []rawTerm{{"every", 300, every}, {"odd", 150, odd}}))
	f.Add(rawPayload(nil, nil))
	f.Add(rawPayload([]string{"a", "b", "c"}, []rawTerm{{"gold", 2, []postEntry{{0, 3}, {2, 1}}}, {"ring", 1, []postEntry{{1, 2}}}}))
	f.Add(rawPayload([]string{"a", "b"}, []rawTerm{{"gold", 2, []postEntry{{1, 1}, {0, 1}}}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, payload []byte) {
		st := fuzzState()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cx, err := decodeSnapshot(payload, st)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > fuzzAllocBound(len(payload)) {
			t.Fatalf("loading %d bytes allocated %d (bound %d)", len(payload), alloc, fuzzAllocBound(len(payload)))
		}
		if err != nil {
			return
		}
		sn := &snapshot{base: st.freeze(cx), ov: &overlay{}, docCount: len(cx.ids)}
		var queries [][]string
		for i, term := range cx.termList[:min(len(cx.termList), 6)] {
			queries = append(queries, []string{term}, []string{term, cx.termList[(i+1)%len(cx.termList)]})
		}
		if len(cx.termList) > 0 {
			queries = append(queries, []string{cx.termList[len(cx.termList)-1], cx.termList[0], "absent"})
		}
		for _, q := range queries {
			for _, k := range []int{1, 3, 10} {
				sc := getScratch()
				got := sn.searchTextRaw(q, k, sc)
				putScratch(sc)
				sc = getScratch()
				want := sn.searchTextExhaustive(q, k, sc)
				putScratch(sc)
				if !hitsEqual(got, want) {
					t.Fatalf("query %q k=%d: block-max %v, exhaustive %v", q, k, hitIDs(got), hitIDs(want))
				}
			}
		}
		var once, twice bytes.Buffer
		if err := writeSnapshotV2(&once, cx); err != nil {
			t.Fatal(err)
		}
		cx2, err := decodeSnapshot(once.Bytes()[len(snapMagic):once.Len()-4], fuzzState())
		if err != nil {
			t.Fatalf("reloading a rewritten accepted file: %v", err)
		}
		if err := writeSnapshotV2(&twice, cx2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("write/load/write is not a fixed point")
		}
	})
}
