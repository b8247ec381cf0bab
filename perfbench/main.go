// Command perfbench is the repository's benchmark. It runs one named
// workload as a closed loop with one caller for a fixed number of
// seconds, checks the outputs, and prints every end-to-end metric by
// name with its unit; with -trace 1 it also runs the workload rebuilt
// from public calls under a tracer and prints the per-layer metrics
// instead. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload table3 --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --compare old.json new.json
//
// Every run also writes its full result, host included, under
// .perfbench/results/ in the working directory.
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
	"strings"
	"time"

	"repro/internal/runner"
)

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload: table3, sensing or hostile_resume")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds to measure for")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced run and reports per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare two result files given as arguments")
	flag.Parse()
	var err error
	if compare {
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
		} else {
			err = compareResults(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	} else {
		err = run(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is everything one run reports; it is the results file's schema.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Host       host              `json:"host"`
	Digest     string            `json:"digest"`
	Walls      []float64         `json:"wall_s"` // per untraced iteration
	TracedWall float64           `json:"traced_wall_s,omitempty"`
	Setups     []float64         `json:"setup_s"`           // per set-up repeat
	SetupRefs  []float64         `json:"setup_reference_s"` // kernel samples before set-up repeats
	IterRefs   []float64         `json:"reference_s"`       // kernel samples before iterations
	Checks     []check           `json:"checks"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"` // the JSON line's metrics
	Quality    map[string]metric `json:"quality"`
	Extra      map[string]metric `json:"extra"` // every other figure measured
}

// iteration is one timed untraced pass.
type iteration struct {
	seed            int64
	wall            time.Duration
	rssMB           float64 // peak resident set during the iteration
	allocMB, pauses float64
	gcs             uint32
	out             *outcome
}

func run(stdout io.Writer, o options) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	e := &env{seed: o.seed, workers: runtime.NumCPU()}
	if e.dir, err = filepath.Abs(filepath.Join(".perfbench", fmt.Sprintf("run-%d", os.Getpid()))); err != nil {
		return err
	}
	defer os.RemoveAll(e.dir)
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}

	// A reference-kernel sample precedes every set-up repeat and every
	// untraced iteration; see calibrate.go.
	var setupRefs, iterRefs, setups []float64
	sampleReference := func(refs *[]float64) error {
		d, err := referenceKernel(e.workers)
		*refs = append(*refs, d.Seconds())
		return err
	}
	for i := 0; i < setupRepeats; i++ {
		if err := sampleReference(&setupRefs); err != nil {
			return err
		}
		start := time.Now()
		if err := w.setup(e); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Iteration i runs the workload on seed iterationSeed(seed, i): the
	// first on the seed itself, the rest on seeds derived from it, so a
	// run's median averages over several inputs, not one.
	budget := time.Duration(o.seconds) * time.Second
	var iters []iteration
	var walls []float64
	for start := time.Now(); keepGoing(start, budget, walls); {
		if err := sampleReference(&iterRefs); err != nil {
			return err
		}
		ie := *e
		ie.seed = iterationSeed(o.seed, len(iters))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := resetPeakRSS(); err != nil {
			return err
		}
		t0 := time.Now()
		out, err := w.run(&ie)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w.name, ie.seed, err)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		iters = append(iters, iteration{
			seed:    ie.seed,
			wall:    wall,
			rssMB:   rss,
			allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			gcs:     m1.NumGC - m0.NumGC,
			pauses:  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
			out:     out,
		})
		walls = append(walls, wall.Seconds())
	}

	// One traced iteration on the run's own seed: per-layer figures need
	// no repeats, and the untraced loop has measured for the full budget.
	var traced *outcome
	var tracedWall time.Duration
	tr := newTracer()
	if o.trace == 1 {
		start := time.Now()
		if traced, err = w.traced(e, tr); err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		tracedWall = time.Since(start)
	}

	h := hostInfo(e.workers)
	res := result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: h,
		Digest: iters[0].out.digest, Walls: walls, TracedWall: tracedWall.Seconds(), Setups: setups,
		SetupRefs: setupRefs, IterRefs: iterRefs,
		Quality: iters[0].out.quality, Extra: map[string]metric{},
	}
	for i, it := range iters {
		for _, c := range it.out.checks {
			if i > 0 {
				c.Name = fmt.Sprintf("seed%d.%s", it.seed, c.Name)
			}
			res.Checks = append(res.Checks, c)
		}
		res.Attempted += it.out.ops
		res.Failed += it.out.failed
	}
	if traced != nil {
		res.Checks = append(res.Checks, checkf("digest.traced", traced.digest == res.Digest,
			"the traced rebuild reproduces the untraced outputs of seed %d", o.seed))
		res.Attempted += traced.ops
		res.Failed += traced.failed
	}
	res.Checks = append(res.Checks, crossRunCheck(w.name, o.seed, iters))
	res.Attempted += len(res.Checks)
	for _, c := range res.Checks {
		if !c.OK {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0

	// Each time is scaled by the kernel samples taken in its own window.
	scale, setupScale := hostScale(iterRefs), hostScale(setupRefs)
	e2e := newMetricSet()
	e2e.put("wall_s", metric{Value: median(walls) * scale, Unit: "s", N: len(walls)})
	e2e.put("setup_s", metric{Value: median(setups) * setupScale, Unit: "s", N: len(setups)})
	var rss []float64
	for _, it := range iters {
		rss = append(rss, it.rssMB)
	}
	e2e.put("peak_rss_mb", metric{Value: median(rss), Unit: "MB", N: len(rss)})
	e2e.put("ok_share", metric{Value: ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)), Unit: "ratio",
		Base: fmt.Sprintf("%d operations (shards and checks)", res.Attempted)})

	host := newMetricSet()
	host.put("host_wall_s", metric{Value: median(walls), Unit: "s", N: len(walls)})
	host.put("host_setup_s", metric{Value: median(setups), Unit: "s", N: len(setups)})
	host.put("host_scale", metric{Value: scale, Unit: "ratio",
		Base: fmt.Sprintf("%v over the median of %d kernel samples before iterations", refNominal, len(iterRefs))})
	host.put("host_setup_scale", metric{Value: setupScale, Unit: "ratio",
		Base: fmt.Sprintf("%v over the median of %d kernel samples before set-up repeats", refNominal, len(setupRefs))})

	var layers, specific *metricSet
	var acct accounting
	if o.trace == 1 {
		acct = tr.account(tracedWall)
		layers, specific = layerMetrics(tr, acct, iters, traced, median(walls), scale)
	}

	printReport(stdout, &res, e2e, host, layers, specific, acct)
	for _, n := range host.names {
		res.Extra[n] = host.m[n]
	}
	if o.trace == 1 {
		res.Metrics = layers.m
		for _, set := range []*metricSet{e2e, specific} {
			for _, n := range set.names {
				res.Extra[n] = set.m[n]
			}
		}
	} else {
		res.Metrics = e2e.m
	}
	if err := saveResult(&res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results file:", err)
	}
	return printJSONLine(stdout, &res)
}

// keepGoing decides whether to start another iteration: always the
// first, then while the next one, judged by the median so far, would
// end no more than half an iteration past the budget.
func keepGoing(start time.Time, budget time.Duration, walls []float64) bool {
	if len(walls) == 0 {
		return true
	}
	next := time.Duration(median(walls) * float64(time.Second))
	return time.Since(start)+next/2 < budget
}

// iterationSeed is the seed of the i-th untraced iteration of a run.
func iterationSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return runner.ShardSeed(seed, fmt.Sprintf("perfbench/iteration/%d", i))
}

// crossRunCheck compares each iteration's digest with the one an
// earlier run of the same binary, workload and seed recorded in the
// checkout, and records the digests not seen before.
func crossRunCheck(workload string, seed int64, iters []iteration) check {
	const name = "digest.cross_run"
	id, err := binaryID()
	if err != nil {
		return checkf(name, false, "cannot identify the binary: %v", err)
	}
	compared := 0
	for i, it := range iters {
		path := filepath.Join(".perfbench", "digests", fmt.Sprintf("%s-%d-%d-%s", workload, seed, i, id))
		prev, err := os.ReadFile(path)
		switch {
		case err == nil:
			if string(prev) != it.out.digest {
				return checkf(name, false, "seed %d: digest %.16s, an earlier run recorded %.16s", it.seed, it.out.digest, prev)
			}
			compared++
		case errors.Is(err, os.ErrNotExist):
			if err := writeFileAtomic(path, []byte(it.out.digest)); err != nil {
				return checkf(name, false, "recording digest: %v", err)
			}
		default:
			return checkf(name, false, "reading %s: %v", path, err)
		}
	}
	return checkf(name, true, "%d of %d iteration digests match earlier runs; the rest recorded", compared, len(iters))
}

func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident set, so the next peakRSSMB covers only what
// follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads the resident-set high-water mark, VmHWM.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func saveResult(res *result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano())
	return writeFileAtomic(filepath.Join(".perfbench", "results", name), b)
}

// printJSONLine writes the final line: correctness, operation counts and
// the metrics as {"value", "unit"} pairs.
func printJSONLine(w io.Writer, res *result) error {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(res.Metrics))
	for k, m := range res.Metrics {
		ms[k] = vu{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
