package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"testing"
	"time"
)

// TestQuickWorkloads runs every workload at tiny sizes, untraced and
// traced, on ephemeral loopback ports: every output check must pass,
// no operation may fail, and the traced run's spans must account for
// its jobs and sessions.
func TestQuickWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				o := options{seed: 3, seconds: 10 * time.Millisecond, traced: traced, quick: true}
				if name == "fleet" || name == "churn" {
					o.seconds = 300 * time.Millisecond
				}
				res, err := workloads[name](o)
				if err != nil {
					t.Fatal(err)
				}
				if !report(io.Discard, res, traced) {
					t.Errorf("checks failed: %v", res.problems)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%d of %d operations failed", res.failed, res.attempted)
				}
				if c := res.metrics["trace.coverage"].value; traced && c < 0.9 {
					t.Errorf("trace coverage %.3f < 0.9", c)
				}
			})
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := func(x int64) int64 { return x * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "job", Start: ms(0), End: ms(100)},
		// Two workers overlap between 30 and 40 ms; the last child runs
		// past its parent's end and is clipped.
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Trace: 1, Name: "b", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 3, Trace: 1, Name: "c", Start: ms(35), End: ms(45)},
	}
	l := newLedger(spans)
	if got, want := l.self["job"], 40*time.Millisecond; got != want {
		t.Errorf("job self time %v, want %v", got, want)
	}
	if got, want := l.self["b"], 50*time.Millisecond; got != want {
		t.Errorf("b self time %v, want %v (60 ms minus its child's 10)", got, want)
	}
	if got, want := l.coverage(), 0.6; got != want {
		t.Errorf("coverage %v, want %v", got, want)
	}
	if got, want := l.busy("job"), 90*time.Millisecond; got != want {
		t.Errorf("busy %v, want %v", got, want)
	}
}

func TestPercentileSelection(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p         float64
		want      float64
		supported bool
	}{
		{50, 50, true},
		{90, 90, true},  // 10 samples beyond
		{99, 99, false}, // 1 sample beyond
		{100, 100, false},
	} {
		q := percentile(xs, c.p)
		if q.value != c.want || q.n != 100 || q.supported() != c.supported {
			t.Errorf("p%g = %v (n=%d, supported=%v), want %v (supported=%v)",
				c.p, q.value, q.n, q.supported(), c.want, c.supported)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if q := percentile([]float64{7}, 50); q.value != 7 || !q.supported() {
		t.Errorf("median of one sample = %+v", q)
	}
	if q := percentile(nil, 50); q.value != 0 || q.n != 0 || q.supported() {
		t.Errorf("percentile of nothing = %+v", q)
	}
}

func TestLatenessAnchorsOnFirstReceivedFrame(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	// Frame 0 is lost; frame 1 is the anchor. Frame 3 is 5 ms late,
	// frame 4 is lost, frame 5 is 2 ms early.
	arrivals := []time.Duration{-1, ms(100), ms(140), ms(185), -1, ms(258)}
	got := lateness(arrivals, ms(40))
	want := []float64{0, 0, 5, -2}
	if len(got) != len(want) {
		t.Fatalf("lateness %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lateness %v, want %v", got, want)
		}
	}
	jit := gapJitter(arrivals, ms(40))
	if wantJ := []float64{0, 5, 7}; len(jit) != 3 || jit[0] != wantJ[0] || jit[1] != wantJ[1] || jit[2] != wantJ[2] {
		t.Fatalf("gap jitter %v, want %v", jit, wantJ)
	}
	if lateness([]time.Duration{-1, -1}, ms(40)) != nil {
		t.Fatal("a session with no frames has no lateness samples")
	}
}

// TestBenchmarkJSONMatches keeps the root BENCHMARK.json and the
// metrics the program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no BENCHMARK.json at the repository root")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a -workload", w.Name)
		}
	}
}
