// Command perfbench is the repository's benchmark. It self-hosts the
// Enclaves daemon in-process over loopback TCP, drives it with a seeded
// open-loop load through the same public functions enclaved and its
// clients use, checks that every output is correct, and prints its metrics.
//
// Usage (normally through run.py, which builds it):
//
//	perfbench --workload multicast|churn|failover|verify --seed N --seconds S --trace 0|1
//
// Human-readable lines go to standard output first; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set (endToEnd); with --trace 1 the run
// wraps the member connections and the daemon's listener and reports the
// per-layer set (perLayer). A correctness violation exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what --trace 0 reports on every workload, so each name means
// the workload's own user-visible wait and unit of work: the latency is the
// multicast delivery (multicast), a rejoin until the member holds the
// rotated group key (churn), the failover gap (failover) or one
// verification run (verify); the operation, whose heap allocation is the
// gated cost, is a delivery, a membership event, a member resume or an
// explored state. Tails (p99 with its sample count), CPU per operation and
// the workload-specific metrics, such as churn's rekey window, are printed
// on the human-readable lines. They are not gated because they spread
// 25-70% run to run on a 2-vCPU share of a busy host: CPU time per
// operation, user and system alike, rises by up to 60% while other tenants
// load the machine, where the bytes allocated per operation move by a few
// percent.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"alloc_kib_per_op", "KiB", "lower", 0.15},
	{"rss_mb", "MiB", "lower", 0.2},
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// opts is one run's command line.
type opts struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	commit   string
	conns    int // multiplexed connections per serving node: nproc
}

// run is one workload's result: its metrics by name, its operation counts
// and the correctness verdict.
type run struct {
	o         opts
	v         verdict
	attempted int64
	failed    int64
	metrics   map[string]metricVal
	tr        *tracer
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metricVal{Value: value, Unit: unit}
}

// say prints one human-readable line.
func (r *run) say(format string, args ...any) {
	fmt.Printf("%s: %s\n", r.o.workload, fmt.Sprintf(format, args...))
}

// sayDist prints a distribution's median and p99 with its sample count.
func (r *run) sayDist(base, unit string, d *dist) {
	r.say("%s", d.describe(base, unit))
}

var workloads = map[string]func(*run) error{
	"multicast": runMulticast,
	"churn":     runChurn,
	"failover":  runFailover,
	"verify":    runVerify,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		o       opts
		seconds float64
		trace   int
	)
	fs.StringVar(&o.workload, "workload", "", "multicast, churn, failover or verify")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.commit, "commit", "unknown", "source revision, stamped into the result")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	f, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload multicast|churn|failover|verify, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.conns = runtime.NumCPU()
	runtime.GOMAXPROCS(runtime.NumCPU())

	r := &run{o: o, metrics: make(map[string]metricVal)}
	if o.trace {
		r.tr = newTracer()
	}
	r.say("commit %s, %s, GOMAXPROCS %d, nproc %d, seed %d, window %v, trace %v",
		o.commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), o.seed, o.window, o.trace)
	if err := f(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := outcome{Correct: r.v.count() == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricVal{}}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			v = metricVal{Unit: m.Unit} // a layer this workload leaves idle
		}
		out.Metrics[m.Name] = v
	}
	printAll(r)
	r.say("fail_ratio = %.6g ratio (%d failed of %d attempted)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if err := r.v.err(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// printAll lists every metric the run measured, sorted by name.
func printAll(r *run) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s: metric %s = %.6g %s\n", r.o.workload, n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	fmt.Print(b.String())
}
