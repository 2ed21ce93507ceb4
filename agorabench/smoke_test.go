package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/docstore"
	"repro/internal/shard"
	"repro/internal/wire"
	"repro/internal/workload"
)

// manifest mirrors the parts of BENCHMARK.json the smoke test checks.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// inTempDir runs the benchmark's file output in a scratch directory.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// TestManifestMatchesCatalog keeps BENCHMARK.json and the metric tables
// the benchmark emits in step.
func TestManifestMatchesCatalog(t *testing.T) {
	m := readManifest(t)
	same := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: manifest lists %d metrics, benchmark emits %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s[%d]: manifest %s/%s, benchmark %s/%s", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var n, u []string
	for _, e := range m.EndToEnd {
		n, u = append(n, e.Name), append(u, e.Unit)
	}
	same("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, e := range m.PerLayer {
		n, u = append(n, e.Name), append(u, e.Unit)
	}
	same("per_layer", perLayer, n, u)
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %q has no implementation", w.Name)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, benchmark has %d", len(m.Workloads), len(workloads))
	}
}

// TestSmokeEveryWorkload runs each workload at tiny scale, untraced and
// traced, and checks the last output line carries every named metric with
// its unit and a passing verdict.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	m := readManifest(t)
	inTempDir(t)
	for _, w := range m.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := benchMain([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", "0.03"}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if code != 0 || !res.Correct {
					t.Fatalf("exit %d, correct=%v\n%s", code, res.Correct, out.String())
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				want := m.EndToEnd
				if trace == "1" {
					want = m.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, got, ok, d.Unit)
					}
					if trace == "0" && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, got.Value)
					}
				}
			})
		}
	}
}

// smallStore is a docstore with a generated corpus and its query pool.
func smallStore(t *testing.T) (*docstore.Store, []string) {
	t.Helper()
	g := workload.NewGenerator(5, 32, 16)
	st, err := docstore.Open(docstore.Options{ConceptDim: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var docs []*docstore.Document
	for _, d := range g.GenCorpus(400, 1.1, 0) {
		docs = append(docs, d.Doc)
	}
	if err := st.PutBatch(docs); err != nil {
		t.Fatal(err)
	}
	users := g.GenUsers(4)
	var pool []string
	for i := 0; i < 8; i++ {
		q, _, _ := g.QueryFor(users[i%len(users)])
		pool = append(pool, q)
	}
	return st, pool
}

// perturbations of a reference answer, each of which a check must reject.
func perturbHits(h []docstore.Hit) map[string][]docstore.Hit {
	cp := func() []docstore.Hit { return append([]docstore.Hit(nil), h...) }
	out := map[string][]docstore.Hit{}
	p := cp()
	p[0].Score = math.Nextafter(p[0].Score, 0) // one ulp
	out["score ulp"] = p
	p = cp()
	p[0], p[1] = p[1], p[0]
	out["order"] = p
	out["dropped"] = cp()[:len(h)-1]
	p = cp()
	d := p[len(p)-1].Doc.Clone()
	d.ID = "not-" + d.ID
	p[len(p)-1].Doc = d
	out["other doc"] = p
	return out
}

func toItems(h []docstore.Hit) []wire.ResultItem {
	out := make([]wire.ResultItem, len(h))
	for i, x := range h {
		out[i] = wire.ResultItem{DocID: x.Doc.ID, Score: x.Score}
	}
	return out
}

// TestChecksRejectPerturbedReference feeds every comparison the benchmark's
// checks use a real answer and a perturbed reference.
func TestChecksRejectPerturbedReference(t *testing.T) {
	st, pool := smallStore(t)
	q := pool[0]
	got := st.SearchText(q, 10)
	if len(got) < 3 {
		t.Fatalf("query %q found %d hits", q, len(got))
	}
	ref := st.SearchTextExhaustive(q, 10)
	if err := sameHits(got, ref); err != nil {
		t.Fatalf("unperturbed reference rejected: %v", err)
	}
	if err := itemsMatchHits(toItems(got), ref); err != nil {
		t.Fatalf("unperturbed reference rejected: %v", err)
	}
	merged := shard.MergeTopK([][]wire.ResultItem{toItems(got)}, 10)
	if err := sameItems(merged, toItems(ref)); err != nil {
		t.Fatalf("unperturbed reference rejected: %v", err)
	}
	for name, bad := range perturbHits(ref) {
		if sameHits(got, bad) == nil {
			t.Errorf("sameHits accepted reference perturbed by %s", name)
		}
		if itemsMatchHits(toItems(got), bad) == nil {
			t.Errorf("itemsMatchHits accepted reference perturbed by %s", name)
		}
		if sameItems(merged, toItems(bad)) == nil {
			t.Errorf("sameItems accepted reference perturbed by %s", name)
		}
	}
}

// TestFailedCheckFailsRun pins that one failed check turns the verdict
// false and the exit code non-zero while the result line is still printed.
func TestFailedCheckFailsRun(t *testing.T) {
	inTempDir(t)
	oc := newOutcome()
	oc.check("passes", nil)
	var tl tally
	tl.add("q", errors.New("perturbed"))
	oc.check("fails", tl.err())
	oc.attempted = 1
	var out bytes.Buffer
	cfg := &config{workload: "scatter-read", seed: 1, seconds: 1, out: &out}
	if code := finish(cfg, oc); code == 0 {
		t.Fatal("run with a failed check exited 0")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("result reports correct after a failed check")
	}
}

// TestCompareAcrossShapes pins that records from different host shapes
// are reported as not comparable.
func TestCompareAcrossShapes(t *testing.T) {
	a := record{Workload: "market", Host: host{NProc: 2, GOMAXPROCS: 2, CPU: "x", GoVersion: "go1"},
		Result: result{Metrics: map[string]metric{"ask_p50_ms": {Value: 100, Unit: "ms"}}}}
	b := a
	b.Result = result{Metrics: map[string]metric{"ask_p50_ms": {Value: 110, Unit: "ms"}}}
	lines, err := compareRecords(a, b)
	if err != nil || len(lines) != 1 || !strings.Contains(lines[0], "+10.0%") {
		t.Fatalf("same shape: %v %v", lines, err)
	}
	b.Host.NProc = 1
	if _, err := compareRecords(a, b); !errors.Is(err, errShape) {
		t.Fatalf("different nproc compared: %v", err)
	}
}
