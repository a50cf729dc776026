// Command kbbench is the benchmark of the shipped deepdive.KB: the
// paper's development loop (devloop), durable document ingest (ingest)
// and wire reads beside a live writer (serve), each driven only through
// the public deepdive API over the News corpus at full scale.
//
//	bash kbbench/run.sh --workload devloop --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: whether every
// check held, the operations attempted and failed, and the metrics —
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. The lines before it print every metric by name with its
// unit, the per-operation accounting and the run's environment record.
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"deepdive/internal/corpus"
	"deepdive/internal/kbc"
)

// endToEnd lists the end-to-end metrics with their units; every
// workload reports all of them, each filled with its own figure. cpu_s
// is process CPU time, not wall time: wall-clock figures of the long
// calls vary by about a fifth from run to run on shared hosts with steal
// time, while the CPU the same fixed work takes varies far less. The
// wall-clock figures are reported per layer (run.inc_s, run.rerun_s,
// queue.docs_per_s, persist.recover_s, serve.point_p50_ms, ...).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"f1", "ratio"},
	{"cpu_s", "s"},
}

// layerMetrics lists every per-layer metric with its unit, in output
// order. Each workload reports all of them; a layer a workload does not
// exercise reads 0 there.
func layerMetrics() [][2]string {
	var out [][2]string
	add := func(name, unit string) { out = append(out, [2]string{name, unit}) }
	perRule := func(prefix, unit string) {
		for _, it := range kbc.IterationNames {
			add(prefix+"."+it, unit)
		}
	}
	add("ground.init_s", "s")
	perRule("ground.apply_ms", "ms")
	perRule("ground.rerun_ms", "ms")
	add("ground.batch_p50_ms", "ms")
	add("ground.new_vars", "count")
	add("ground.new_factors", "count")
	add("learn.full_s", "s")
	perRule("learn.apply_ms", "ms")
	perRule("learn.rerun_ms", "ms")
	add("learn.batch_p50_ms", "ms")
	add("inc.materialize_s", "s")
	perRule("inc.apply_ms", "ms")
	perRule("inc.acceptance", "ratio")
	perRule("inc.sampling", "count")
	add("inc.batch_p50_ms", "ms")
	add("gibbs.infer_s", "s")
	perRule("gibbs.rerun_ms", "ms")
	add("queue.batches", "count")
	add("queue.docs_per_s", "1/s")
	add("queue.wait_p50_ms", "ms")
	add("queue.update_p50_ms", "ms")
	add("persist.checkpoint_s", "s")
	add("persist.recover_s", "s")
	add("persist.wal_appends", "count")
	add("persist.wal_syncs", "count")
	add("persist.wal_kb", "KB")
	add("persist.snapshot_kb", "KB")
	add("snapshot.point_ns", "ns")
	add("snapshot.bulk_us", "us")
	add("serve.reads_per_s", "1/s")
	add("serve.point_p50_ms", "ms")
	add("serve.point_p99_ms", "ms")
	add("serve.point_n", "count")
	add("serve.bulk_p50_ms", "ms")
	add("serve.bulk_p99_ms", "ms")
	add("serve.bulk_n", "count")
	add("serve.bulk_kb", "KB")
	add("serve.fanout_p50_ms", "ms")
	add("serve.sse_events", "count")
	add("run.inc_s", "s")
	add("run.rerun_s", "s")
	add("run.speedup", "x")
	add("run.cpu_s", "s")
	add("run.steal_pct", "%")
	add("run.trace_overhead_pct", "%")
	add("runtime.alloc_mb", "MB")
	add("runtime.gc_cycles", "count")
	return out
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	in       *inputs
	tr       *tracer
	ops      *accounting
	dir      string // scratch directory of this run, inside .bench_build

	mu       sync.Mutex
	failures []string

	e2e   map[string]float64
	layer map[string]float64
}

// check records a failed check; nil errors pass.
func (b *bench) check(what string, err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	b.failures = append(b.failures, what+": "+err.Error())
	b.mu.Unlock()
}

// roundTraced reports whether round i of a traced run records spans:
// traced runs alternate traced and untraced rounds, so the same run
// measures the tracing overhead.
func (b *bench) roundTraced(i int) bool { return b.traced && i%2 == 0 }

// moreRounds reports whether a round-based workload starts another
// round: until the run's seconds are spent, and in a traced run at least
// one traced and one untraced round.
func (b *bench) moreRounds(start time.Time, done int) bool {
	if b.traced && done < 2 {
		return true
	}
	return done == 0 || time.Since(start) < b.seconds
}

// traceOverhead reports the traced rounds' median wall time over the
// untraced rounds', in percent.
func traceOverhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return (median(traced)/median(untraced) - 1) * 100
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]metricWithUnit `json:"metrics"`
}

type metricWithUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "devloop, ingest or serve")
	seed := flag.Int64("seed", 1, "seed of the run's inputs")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "kbbench:", err)
		os.Exit(1)
	}
}

// workloads maps each workload's name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"devloop": runDevloop,
	"ingest":  runIngest,
	"serve":   runServe,
}

func newBench(workload string, seed int64, seconds time.Duration, traced bool, in *inputs, dir string) *bench {
	b := &bench{
		workload: workload, seed: seed, seconds: seconds, traced: traced,
		in: in, tr: newTracer(), ops: newAccounting(), dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	for _, m := range layerMetrics() {
		b.layer[m[0]] = 0
	}
	return b
}

func run(workload string, seed int64, seconds int, traced bool) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want devloop, ingest or serve)", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	in, err := newInputs(corpus.News())
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d-%d", workload, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := newBench(workload, seed, time.Duration(seconds)*time.Second, traced, in, dir)
	env := startEnv()
	if err := fn(context.Background(), b); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	env.finish(b)
	if traced {
		tdir := filepath.Join(".bench_build", "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return err
		}
		if err := b.tr.write(filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return b.report(env)
}

// report prints the environment record, the accounting, every metric
// by name with its unit, and the result line.
func (b *bench) report(env *envRecord) error {
	fmt.Println(env.String())
	b.ops.print()
	attempted, failed := b.ops.totals()
	if failed > 0 {
		b.check("operations", fmt.Errorf("%d of %d failed", failed, attempted))
	}
	for _, f := range b.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	res := result{Correct: len(b.failures) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricWithUnit{}}
	for _, m := range endToEnd {
		fmt.Printf("end_to_end %-24s %14.6g %s\n", m.name, b.e2e[m.name], m.unit)
		if !b.traced {
			res.Metrics[m.name] = metricWithUnit{b.e2e[m.name], m.unit}
		}
	}
	for _, m := range layerMetrics() {
		if b.traced {
			fmt.Printf("per_layer  %-24s %14.6g %s\n", m[0], b.layer[m[0]], m[1])
			res.Metrics[m[0]] = metricWithUnit{b.layer[m[0]], m[1]}
		}
	}
	if attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// accounting counts the operations of each type a run attempted and how
// many failed.
type accounting struct {
	mu sync.Mutex
	m  map[string]*[2]int
}

func newAccounting() *accounting { return &accounting{m: map[string]*[2]int{}} }

// note counts one attempt of op, failed when err is non-nil.
func (a *accounting) note(op string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.m[op]
	if c == nil {
		c = new([2]int)
		a.m[op] = c
	}
	c[0]++
	if err != nil {
		c[1]++
	}
}

// totals sums the counts over every operation type.
func (a *accounting) totals() (attempted, failed int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range a.m {
		attempted += c[0]
		failed += c[1]
	}
	return attempted, failed
}

// print writes one line per operation type.
func (a *accounting) print() {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.m))
	for n := range a.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("ops %-12s attempted=%d failed=%d\n", n, a.m[n][0], a.m[n][1])
	}
}
