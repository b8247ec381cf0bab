package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"wall_s":                    true,
		"stage.rforest.train_pct":   true,
		"board.tick_ns":             true,
		"2x-speed":                  true,
		"":                          false,
		"_wall":                     false,
		".wall":                     false,
		"wall s":                    false,
		"wall/s":                    false,
		"wäll":                      false,
		strings.Repeat("a", 64):     true,
		strings.Repeat("a", 65):     false,
		"latency(ms)":               false,
		"runner.utilization-ratio1": true,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true},
		{40, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - 1 - nearestRankIndex(c.n, got); beyond < 10 {
				t.Errorf("n=%d p%v leaves %d samples beyond it, want >= 10", c.n, got, beyond)
			}
		}
	}
}

func TestSummarizeStatesN(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40..1, unsorted
	}
	d := summarize(xs)
	if d.N != 40 || d.P50 != 20.5 || d.TailPct != 75 || d.Tail != 30 || d.Max != 40 {
		t.Fatalf("summarize = %+v", d)
	}
	if d := summarize(xs[:5]); d.TailPct != 0 || d.Tail != d.Max || d.N != 5 {
		t.Fatalf("short summarize = %+v, want the max and no percentile level", d)
	}
}

func TestRatioNeedsBase(t *testing.T) {
	for _, unit := range []string{"ratio", "%"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("unit %q without a base was accepted", unit)
				}
			}()
			newMetricSet().put("x", metric{Value: 0.5, Unit: unit})
		}()
	}
	s := newMetricSet()
	s.put("x", metric{Value: 0.5, Unit: "ratio", Base: "10 attempts"})
	if s.m["x"].Base == "" {
		t.Fatal("base dropped")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// syntheticLayers builds the per-layer metric set from a tracer that saw
// one phase, enough to enumerate the names a traced run prints.
func syntheticLayers() *metricSet {
	tr := newTracer()
	tr.phases = []*phase{{name: "synthetic", workers: 2, sharded: true, wall: time.Second,
		busy: time.Second, delta: map[string]int64{"sim.ticks": 10, "sim.walltime_ns": 1e6},
		self: map[string]time.Duration{}}}
	a := tr.account(time.Second)
	iters := []iteration{{wall: time.Second, out: &outcome{}}}
	layers, _ := layerMetrics(tr, a, iters, &outcome{}, 1, 1)
	return layers
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	var workloadNames, e2eNames, layerNames []string
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range spec.EndToEnd {
		e2eNames = append(e2eNames, m.Name)
	}
	for _, m := range spec.PerLayer {
		layerNames = append(layerNames, m.Name)
	}
	var progWorkloads []string
	for _, w := range workloads {
		progWorkloads = append(progWorkloads, w.name)
	}
	sameSet(t, "workloads", workloadNames, progWorkloads)
	sameSet(t, "end_to_end", e2eNames, []string{"wall_s", "setup_s", "peak_rss_mb", "ok_share"})
	layers := syntheticLayers()
	sameSet(t, "per_layer", layerNames, layers.names)
	for _, m := range spec.PerLayer {
		if got := layers.m[m.Name].Unit; got != m.Unit {
			t.Errorf("per_layer %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, got)
		}
	}
	for _, n := range append(append(workloadNames, e2eNames...), layerNames...) {
		if !validName(n) {
			t.Errorf("invalid name %q in BENCHMARK.json", n)
		}
	}
}

func sameSet(t *testing.T, what string, a, b []string) {
	t.Helper()
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("%s differ:\n BENCHMARK.json %v\n program        %v", what, a, b)
	}
}

func TestEveryRatioHasBase(t *testing.T) {
	layers := syntheticLayers()
	for _, n := range layers.names {
		m := layers.m[n]
		if (m.Unit == "ratio" || m.Unit == "%") && m.Base == "" {
			t.Errorf("%s is a ratio without a base", n)
		}
	}
}

func TestCompareFlagsHostMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host) string {
		r := result{Workload: "sensing", Host: h, Metrics: map[string]metric{"wall_s": {Value: 1, Unit: "s"}}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	h := host{NumCPU: 2, GOMAXPROCS: 2, Workers: 2, CPUModel: "a", GoVersion: "go1.24.0"}
	same := write("same.json", h)
	other := h
	other.CPUModel = "b"
	diff := write("diff.json", other)
	var out strings.Builder
	if err := compareResults(&out, same, same); err != nil {
		t.Fatalf("same host: %v", err)
	}
	out.Reset()
	err := compareResults(&out, same, diff)
	if err == nil || !strings.Contains(out.String(), "HOST MISMATCH cpu_model") {
		t.Fatalf("different hosts compared silently: err=%v\n%s", err, out.String())
	}
}

// TestSmoke runs every workload briefly, untraced and traced, from a
// scratch directory and requires a correct result carrying exactly the
// metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			var out strings.Builder
			if err := run(&out, options{workload: w.name, seed: 1, seconds: 1, trace: trace}); err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if trace == 1 {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				// A timing in the JSON line is measured on every
				// workload; none may read a constant 0.
				switch got.Unit {
				case "s", "ms", "us", "ns":
					if got.Value <= 0 {
						t.Errorf("%s trace=%d: timing %s = %v", w.name, trace, m.Name, got.Value)
					}
				}
			}
		}
	}
}
