// Command perfbench is the repository's benchmark: it boots a loopback
// cluster of real flasksd processes, drives one named closed-loop
// workload through the public client and the RESP gateway, checks
// every result, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a counter-scraped run plus an in-process
// traced run) as one JSON line at the end of its output.
//
//	bash perfbench/run.sh --workload kv-mixed --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"dataflasks"
)

// setupReps is how many times a run sets the cluster up; setup_s (and
// preload_s) is the median.
const setupReps = 3

// warmup runs the workload unmeasured before the window, so
// connections, caches and the Go heap reach their steady state.
const warmup = time.Second

// Metric is one reported figure.
type Metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // samples behind a percentile (0: not a percentile)
}

// Result is one run's outcome.
type Result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Notes     []string
	Metrics   []Metric
}

func (r *Result) add(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, N: n})
}

func (r *Result) get(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func (r *Result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer name the metrics of the final JSON line, in
// the order BENCHMARK.json lists them.
var endToEnd = []string{
	"setup_s", "ops_per_s", "rss_mb", "msgs_per_op", "wire_bytes_per_op",
}

// perLayer leaves out the figures read off histogram buckets
// (core.tick.p99_ms, resp.cmd.*): they are powers of two that repeat
// exactly from run to run. The report lines carry them.
var perLayer = []string{
	// Counter deltas over the measured window, summed across nodes.
	"client.retries_per_kop", "client.mailbox_drops",
	"core.data_msgs_per_op", "core.relays_per_op", "core.dup_ratio",
	"core.coalesced_share", "core.mailbox_drops",
	"transport.send_errors",
	"store.live_mb", "store.dead_mb", "store.segments", "store.compactions",
	"antientropy.digest_kb_per_s", "antientropy.push_kb_per_s", "antientropy.pushed_objects",
	"bootstrap.mb", "bootstrap.segments", "bootstrap.fell_back", "bootstrap.fallback_objects",
	"pss.msgs_per_node_s", "slicing.msgs_per_node_s", "aggregate.msgs_per_node_s",
	"flasksd.allocs_per_op", "flasksd.syscalls_per_op", "flasksd.disk_write_mb",
	// CPU per operation is end to end, but it moves with hypervisor steal
	// (see README.md), so it is recorded here, ungated.
	"cpu_us_per_op",
	// Spans of the in-process traced run.
	"client.submit.p50_us", "core.handle.p50_us", "core.handle.p99_us", "core.handle.self_p50_us",
	"core.mailbox_wait.p50_us", "core.mailbox_wait.p99_us", "core.busy_share",
	"wire.encode.p50_ns", "wire.decode.p50_ns", "wire.frames_per_op",
	"transport.send.p50_us", "transport.send.p99_us", "transport.sends_per_op",
	"store.calls_per_op", "store.busy_share",
	"trace.overhead.ops_per_s", "trace.msgs_per_op", "trace.wire_bytes_per_op",
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "kv-mixed, resp-read, bulk-churn or rejoin")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured window length")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics (counter-scraped run plus in-process traced run)")
		bin     = flag.String("flasksd", "", "flasksd binary")
		out     = flag.String("out", ".bench_build/perfbench", "working directory for data, logs and spans")
	)
	flag.Parse()
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --flasksd is required (run through run.sh)")
		return 2
	}
	if _, err := newWorkload(*name, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	reps := setupReps
	if *trace == 1 {
		reps = 1 // set-up time is an end-to-end metric; the traced mode skips its repetitions
	}
	res, err := measure(*bin, filepath.Join(*out, "run"), *name, *seed, window, reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport("measured", res)
	names := endToEnd
	if *trace == 1 {
		tres, err := traced(filepath.Join(*out, "traced"), *name, *seed, window, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 1
		}
		printReport("traced", tres)
		res.Metrics = append(res.Metrics, tres.Metrics...)
		for _, n := range tres.Notes {
			res.fail("%s", n)
		}
		names = perLayer
	}
	return emit(res, names)
}

// emit prints the final JSON line with the named metrics.
func emit(res *Result, names []string) int {
	metrics := map[string]Metric{}
	for _, n := range names {
		m, ok := res.get(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			return 1
		}
		metrics[n] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printReport(label string, res *Result) {
	fmt.Printf("== %s: correct=%t attempted=%d failed=%d\n", label, res.Correct, res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, m := range res.Metrics {
		if m.N > 0 {
			fmt.Printf("   %-42s %14.4f %-7s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("   %-42s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// commit names the source the benchmark was built from (run.sh passes
// it in).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// clientConfig is the deployment shape a client must agree on.
func clientConfig() dataflasks.Config {
	return dataflasks.Config{Slices: clusterSlice, SystemSize: clusterNodes}
}
