// Command pbpair-bench is the repository benchmark: it runs one named
// workload in its own process, prints every end-to-end metric as
// "name value unit", checks the workload's outputs, and ends with one
// JSON line carrying the same metrics. With -trace it runs the
// workload traced and prints the per-layer metrics instead. See
// README.md for the workloads, the metric catalog and the bounds.
//
//	go run . -workload fig5 -seed 1
//	go run . -workload churn -seed 2 -trace spans.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds time.Duration // length of the measured phase
	traced  bool
	quick   bool // tiny sizes, for the smoke tests
}

// metric is one reported number. n > 0 marks a percentile of n raw
// samples; p is then the percentile.
type metric struct {
	value float64
	n     int
	p     float64
}

// result is what a workload measured and checked.
type result struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string // failed output checks
	notes     []string // extra diagnostics printed before the metrics
	spans     []span   // traced runs: every recorded span
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, value float64) {
	r.metrics[name] = metric{value: value}
}

func (r *result) setPct(name string, q pct) {
	r.metrics[name] = metric{value: q.value, n: q.n, p: q.p}
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd lists the metrics of untraced runs; every workload reports
// all of them and none may read 0. BENCHMARK.json names the same
// metrics with the same units (TestBenchmarkJSONMatches).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer metrics come from the traced run. A layer the workload does
// not exercise reports 0; every time-valued metric is measured on every
// workload.
var perLayer = []metricDef{
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.cpu_util", "frac"},
	{"proc.gc_cpu_frac", "frac"},
	{"proc.alloc_mb_per_s", "MB/s"},
	{"trace.coverage", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
	{"obs.snapshot_ms", "ms"},
	{"obs.keys", "count"},
	{"codec.encode_ms_per_frame", "ms"},
	{"codec.encode_share", "frac"},
	{"energy.sad_ops_per_frame", "count"},
	{"energy.dct_blocks_per_frame", "count"},
	{"energy.vlc_bits_per_frame", "count"},
	{"energy.mc_mbs_per_frame", "count"},
	{"experiment.calibrate_share", "frac"},
	{"experiment.simbatch_share", "frac"},
	{"experiment.simbatch_trials_per_s", "1/s"},
	{"experiment.lanes_per_decode", "ratio"},
	{"experiment.group_decodes", "count"},
	{"experiment.parsed_frames", "count"},
	{"experiment.lineage_forks", "count"},
	{"experiment.lineage_merges", "count"},
	{"experiment.max_live_groups", "count"},
	{"analytic.share", "frac"},
	{"analytic.eval_points_per_s", "1/s"},
	{"analytic.extract_frames_per_s", "1/s"},
	{"serve.admit_p50_frames", "frames"},
	{"serve.admit_p90_frames", "frames"},
	{"serve.first_frame_p50_frames", "frames"},
	{"serve.encodes_per_s", "1/s"},
	{"serve.shared_frac", "frac"},
	{"serve.lineage_forks", "count"},
	{"serve.lineage_merges", "count"},
	{"serve.loadshed_deferrals", "count"},
	{"serve.loadshed_rejects", "count"},
	{"serve.sessions_rejected", "count"},
	{"serve.dispatch_to_wire_mean_frames", "frames"},
	{"serve.recv_per_syscall", "ratio"},
	{"serve.send_per_syscall", "ratio"},
	{"serve.feedback_dropped", "count"},
	{"serve.shard_rx_balance", "ratio"},
	{"serve.shutdown_frames", "frames"},
	{"client.e2e_p50_frames", "frames"},
	{"client.e2e_p99_frames", "frames"},
	{"client.late_p90_frames", "frames"},
	{"client.late_p99_frames", "frames"},
	{"client.gap_jitter_p99_frames", "frames"},
	{"gen.late_p90_frames", "frames"},
}

type metricDef struct{ name, unit string }

// workloads maps each -workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"fig5":  runFig5,
	"sweep": runSweep,
	"fleet": runFleet,
	"churn": runChurn,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "length of the measured phase in seconds")
		trace    = flag.String("trace", "0", `"0" untraced; "1" traced; any other value is traced and names the JSONL span file to write`)
		quick    = flag.Bool("quick", false, "tiny sizes (smoke test)")
	)
	flag.Parse()
	run := workloads[*workload]
	if run == nil || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pbpair-bench: need -workload (%s) and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace != "0" && *trace != "",
		quick:   *quick,
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbpair-bench:", err)
		os.Exit(1)
	}
	if o.traced && *trace != "1" {
		if err := writeJSONL(*trace, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "pbpair-bench:", err)
			os.Exit(1)
		}
	}
	if !report(os.Stdout, res, o.traced) {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the metrics as text lines, then the JSON result line,
// and returns whether every check passed.
func report(w io.Writer, res *result, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "#", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jsonMetric{}
	for _, d := range defs {
		m := res.metrics[d.name]
		if !traced && m.value == 0 {
			res.fail("end-to-end metric %s is 0 or was not measured", d.name)
		}
		line := fmt.Sprintf("%-36s %s %s", d.name, strconv.FormatFloat(m.value, 'g', -1, 64), d.unit)
		if m.n > 0 {
			line += fmt.Sprintf("  n=%d", m.n)
			if !(pct{n: m.n, p: m.p}).supported() {
				line += fmt.Sprintf("  (fewer than %d samples beyond p%g)", minBeyond, m.p)
			}
		}
		fmt.Fprintln(w, line)
		out[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	frac := ratio(float64(res.failed), float64(res.attempted))
	fmt.Fprintf(w, "%-36s %s ratio  (%d of %d)\n", "failed_frac", strconv.FormatFloat(frac, 'g', -1, 64), res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	ok := len(res.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{ok, max(res.attempted, 1), res.failed, out})
	if err != nil { // a NaN or infinite metric
		fmt.Fprintln(os.Stderr, "result:", err)
		return false
	}
	fmt.Fprintln(w, string(line))
	return ok
}
