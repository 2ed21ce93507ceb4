// Command agorabench is the repository's end-to-end benchmark. It drives the
// agora through its public packages only — docstore, transport, shard, wire,
// core and query — on three workloads generated from a seed:
//
//   - scatter-read: a 2-shard cluster over loopback TCP, durable stores with
//     SyncEveryPut, a 32k-doc Zipfian corpus and two closed-loop askers
//     cycling a 256-query pool on one P, with no writes.
//   - scatter-ingest: the same cluster with one closed-loop asker beside an
//     open-loop ingester sending 16-doc batches at 320 docs/s, on two Ps.
//     Freezes, group commit, WAL fsync and compaction run concurrently with
//     asks.
//   - market: an in-process core.Agora with 4 in-memory providers (8k docs),
//     one closed-loop asker over 16 sessions drawing Zipf-skewed asks from
//     1024 distinct ones, and an open-loop ingester sending 64-doc
//     Node.IngestBatch calls at 5/s, on two Ps.
//
// Usage, from the checkout root:
//
//	bash agorabench/run.sh --workload scatter-read --seed 1 --seconds 20 --trace 0
//	bash agorabench/run.sh compare .bench_out/results/a.json .bench_out/results/b.json
//
// With --trace 0 the last line of standard output is one JSON object holding
// every end-to-end metric; with --trace 1 it holds every per-layer metric,
// measured on a separately built, instrumented set-up, and a span file plus a
// per-layer self-time table are written under .bench_out. Each run checks
// the program's answers; a failed check sets "correct" to false and the
// process exits 1. Every run archives its result with the host shape (nproc,
// GOMAXPROCS, CPU model, Go version, seed) and the steal and I/O-wait share
// of the machine while it ran; compare reports records from different shapes
// as not comparable.
//
// Definitions that the metric names do not carry:
//
//   - Ask latency is closed loop; a failed or partial ask counts as
//     infinitely slow. Ingest latency runs from a batch's due time to its
//     acknowledgement. The ask rate and p99 and the ingest p50/p99 are
//     printed but not gated (see askReport and ingestReport). The failed
//     share of operations is printed as fail_frac and carried by the
//     result's "failed"/"attempted" fields.
//   - setup_s is the median of three set-ups per run (store open, bulk load,
//     listeners, router dial, warm-up asks); input generation is excluded.
//   - recovery_cpu_s is the median process CPU time of seven recoveries
//     after the run (the wall time is printed, not gated): reopening
//     every shard directory (scatter-*) or, for in-memory providers, which
//     have no log, reloading every acknowledged document (market), until
//     each store has answered once, plus one full collection (see
//     timeRecoveries).
//   - space_amp is bytes on disk in the shard directories (scatter-*), or
//     the live heap the market adds (market), over the live user bytes.
//   - rss_peak_mb covers set-up and the window; the checks that follow are
//     excluded. heap_live_mb is the live heap after a full collection once
//     the window and any background compaction are done.
//   - shard.stats_miss_per_ask counts the router's TermStats round-trips
//     (one per shard fetched) per ask, from the servers' frame counts;
//     transport.frames_per_flush covers the servers and the replay
//     connections, since the router's own connections are not exported.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir holds span files, result records and run data, relative to the
// directory the benchmark runs from (the checkout root).
const outDir = ".bench_out"

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks corpus, pool and setup repetitions for the smoke test;
	// 1 is the benchmark's defined size.
	scale float64
	// dataDir receives shard directories and the reference store.
	dataDir string
	// out receives the human-readable report; the JSON line goes last.
	out io.Writer
	// load0 is the machine's CPU tick count when the run started.
	load0 cpuTicks
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark's last output line carries.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run archives: the result plus what it ran on.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     host     `json:"host"`
	Load     hostLoad `json:"host_load"`
	Checks   []string `json:"checks"`
	Result   result   `json:"result"`
}

var workloads = map[string]func(*config) (*outcome, error){
	"scatter-read":   runScatterRead,
	"scatter-ingest": runScatterIngest,
	"market":         runMarket,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("agorabench", flag.ContinueOnError)
	cfg := config{out: stdout, load0: readCPUTicks()}
	fs.StringVar(&cfg.workload, "workload", "", "scatter-read, scatter-ingest or market")
	fs.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured window length")
	traceFlag := fs.Int("trace", 0, "1 = instrumented run reporting per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "input scale (smoke tests only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "agorabench: unknown workload %q\n", cfg.workload)
		return 2
	}
	cfg.trace = *traceFlag != 0
	dir, err := os.MkdirTemp(mustMkdir(outDir), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "agorabench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.dataDir = dir

	oc, err := run(&cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agorabench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return finish(&cfg, oc)
}

// pinProcs sets the workload's GOMAXPROCS, capped at the CPUs present,
// unless the GOMAXPROCS environment variable overrides it. The value is
// recorded in the host shape of every result.
func pinProcs(n int) {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(n, runtime.NumCPU()))
	}
}

// finish reports an outcome: the checks, the metric table, the archived
// record, and the JSON line last.
func finish(cfg *config, oc *outcome) int {
	res := oc.result(cfg.trace)
	hs := hostShape(cfg.seed)
	load := cfg.load0.until(readCPUTicks())
	fmt.Fprintf(cfg.out, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s seed=%d steal=%.3f iowait=%.3f\n",
		hs.NProc, hs.GOMAXPROCS, hs.CPU, hs.GoVersion, hs.Seed, load.Steal, load.IOWait)
	for _, c := range oc.checks {
		fmt.Fprintf(cfg.out, "check: %s\n", c)
	}
	for _, f := range oc.failures {
		fmt.Fprintf(cfg.out, "CHECK FAILED: %s\n", f)
	}
	fmt.Fprintf(cfg.out, "fail_frac: %.6f (%d of %d operations)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, r := range oc.report {
		fmt.Fprintf(cfg.out, "%s\n", r)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.out, "%-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	rec := record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: hs, Load: load, Checks: oc.checks, Result: res}
	if path, err := writeRecord(rec); err != nil {
		fmt.Fprintf(os.Stderr, "agorabench: archiving result: %v\n", err)
	} else {
		fmt.Fprintf(cfg.out, "record: %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "agorabench: %v\n", err)
		return 1
	}
	fmt.Fprintf(cfg.out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeRecord(rec record) (string, error) {
	dir := mustMkdir(filepath.Join(outDir, "results"))
	trace := 0
	if rec.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json",
		rec.Workload, rec.Seed, trace, time.Now().UTC().Format("20060102T150405.000")))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// mustMkdir creates dir if needed and returns it; a failure surfaces at the
// first file written there.
func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "agorabench: %v\n", err)
	}
	return dir
}

// compareMain prints, per metric, the relative change from the first record
// to the second. Records taken on different host shapes are reported as not
// comparable rather than as a regression or a gain.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: agorabench compare <base.json> <new.json>")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "agorabench: %s: %v\n", p, err)
			return 2
		}
	}
	lines, err := compareRecords(recs[0], recs[1])
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if err != nil {
		fmt.Fprintf(stdout, "not comparable: %v\n", err)
		return 3
	}
	return 0
}

var errShape = errors.New("host shapes differ")

func compareRecords(a, b record) ([]string, error) {
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return nil, fmt.Errorf("different runs: %s/trace=%v vs %s/trace=%v", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	if d := a.Host.diff(b.Host); d != "" {
		return nil, fmt.Errorf("%w: %s", errShape, d)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		av, bm := a.Result.Metrics[n], b.Result.Metrics[n]
		change := "n/a"
		if av.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(bm.Value-av.Value)/av.Value)
		}
		out = append(out, fmt.Sprintf("%-30s %14.4f -> %14.4f %-6s %s", n, av.Value, bm.Value, av.Unit, change))
	}
	return out, nil
}
