// Command benchtab regenerates every table and figure of the paper's
// evaluation on the simulated ZCU102 and prints them as text artifacts.
//
// Usage:
//
//	benchtab -exp all                 # everything, reduced budgets
//	benchtab -exp fig2 -samples 200   # Fig. 2 with more averaging
//	benchtab -exp table3 -traces 12 -paper-scale
//
// The -paper-scale flag raises the capture budgets to the paper's
// (10,000 samples per level for Fig. 2; 100,000 samples per key for
// Fig. 4); expect long runtimes.
//
// With -json FILE, benchtab also writes a machine-readable perf
// artifact (the obs metrics snapshot plus derived engine throughput and
// attacker sample-rate percentiles), so successive BENCH_*.json files
// track the simulator's performance trajectory across changes.
//
// -repeat N runs the selected experiments N times (experiment output is
// printed once; later repeats only feed the artifact statistics), and
// -baseline FILE -compare renders a benchstat-style report against an
// earlier artifact. The comparison always gates hard on deterministic
// counter drift — for a fixed seed the simulation must execute exactly
// the same work — while wall-clock rates are report-only unless
// -regress-pct sets a threshold.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/board"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/perf"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	var global cliflags.Flags
	global.Register(flag.CommandLine)
	var (
		exp        = flag.String("exp", "all", "experiment: table1|table2|fig2|fig3|table3|fig4|applicability|tvla|mitigation|all")
		seed       = flag.Int64("seed", 1, "root seed for every experiment")
		samples    = flag.Int("samples", 0, "samples per level (fig2) / per key (fig4); 0 = default budget")
		traces     = flag.Int("traces", 10, "traces per model for table3")
		paperScale = flag.Bool("paper-scale", false, "use the paper's full capture budgets (slow)")
		jsonOut    = flag.String("json", "", "write a JSON perf artifact (obs snapshot + derived rates), e.g. BENCH_obs.json")
		parallel   = flag.Int("parallel", 0, "workers for sharded experiments (0 = GOMAXPROCS; results are identical for any worker count)")
		repeat     = flag.Int("repeat", 1, "run the experiments this many times for rate statistics (output printed once)")
		baseline   = flag.String("baseline", "", "baseline perf artifact (BENCH_*.json) for -compare")
		compare    = flag.Bool("compare", false, "compare this run's artifact against -baseline and exit non-zero on drift/regression")
		regressPct = flag.Float64("regress-pct", 0, "fail when a wall-clock rate regresses beyond this percent (0 = rates report-only)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	switch *exp {
	case "table1", "table2", "fig2", "fig3", "table3", "fig4",
		"applicability", "tvla", "mitigation", "all":
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchtab: -repeat must be at least 1")
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "benchtab: -parallel must be >= 0 (0 selects GOMAXPROCS; got %d)\n", *parallel)
		os.Exit(2)
	}
	if *compare && *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchtab: -compare requires -baseline FILE")
		os.Exit(2)
	}
	// benchtab has no -fault-intensity: a profile runs as defined.
	sess, err := global.Start("benchtab-"+*exp, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(2)
	}
	profile := sess.Profile

	experiments := func(out io.Writer) error {
		var firstErr error
		run := func(name string, f func() error) {
			if firstErr != nil {
				return
			}
			switch *exp {
			case name, "all":
				if err := f(); err != nil {
					firstErr = fmt.Errorf("%s: %w", name, err)
					return
				}
				fmt.Fprintln(out)
			}
		}

		run("table1", func() error {
			return report.RenderTableI(out, board.Catalog())
		})
		run("table2", func() error {
			return report.RenderTableII(out, board.SensitiveSensors())
		})
		run("fig2", func() error {
			n := *samples
			if n == 0 {
				n = 20
			}
			if *paperScale {
				n = 10000
			}
			res, err := core.Characterize(core.CharacterizeConfig{Seed: *seed, SamplesPerLevel: n, Faults: profile})
			if err != nil {
				return err
			}
			return report.RenderFig2(out, res)
		})
		run("fig3", func() error {
			channels := []core.Channel{
				{Label: board.SensorCPUFull, Kind: core.Current},
				{Label: board.SensorCPULow, Kind: core.Current},
				{Label: board.SensorFPGA, Kind: core.Current},
				{Label: board.SensorDDR, Kind: core.Current},
			}
			caps, err := core.CollectDPUTraces(core.FingerprintConfig{
				Seed:           *seed,
				Models:         []string{"MobileNet-V1", "SqueezeNet-1.1", "EfficientNet-Lite0", "Inception-V3", "ResNet-50", "VGG-19"},
				TracesPerModel: 1,
				TraceDuration:  5 * time.Second,
				Durations:      []time.Duration{5 * time.Second},
				Folds:          1,
				Channels:       channels,
				Parallelism:    *parallel,
				Faults:         profile,
			})
			if err != nil {
				return err
			}
			return report.RenderFig3(out, caps, channels)
		})
		run("table3", func() error {
			res, err := core.Fingerprint(core.FingerprintConfig{
				Seed:           *seed,
				TracesPerModel: *traces,
				Parallelism:    *parallel,
				Faults:         profile,
			})
			if err != nil {
				return err
			}
			return report.RenderTableIII(out, res, core.SensitiveChannels(),
				[]time.Duration{time.Second, 2 * time.Second, 3 * time.Second,
					4 * time.Second, 5 * time.Second})
		})
		run("fig4", func() error {
			n := *samples
			if n == 0 {
				n = 5000
			}
			if *paperScale {
				n = 100000
			}
			res, err := core.RSAHammingWeight(core.RSAConfig{Seed: *seed, Samples: n, Parallelism: *parallel})
			if err != nil {
				return err
			}
			return report.RenderFig4(out, res)
		})
		run("applicability", func() error {
			rows, err := core.Applicability(core.ApplicabilityConfig{
				Seed:        *seed,
				Parallelism: *parallel,
				Faults:      profile,
			})
			if err != nil {
				return err
			}
			return report.RenderApplicability(out, rows)
		})
		run("tvla", func() error {
			plain, err := core.AssessRSALeakage(core.LeakageConfig{Seed: *seed, Parallelism: *parallel})
			if err != nil {
				return err
			}
			ladder, err := core.AssessRSALeakage(core.LeakageConfig{Seed: *seed, Countermeasure: true, Parallelism: *parallel})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "TVLA fixed-vs-random over FPGA current:\n")
			fmt.Fprintf(out, "  square-and-multiply victim: t=%+.1f leaks=%v SNR=%.0f\n",
				plain.TVLA.T, plain.TVLA.Leaks, plain.SNR)
			fmt.Fprintf(out, "  Montgomery-ladder victim:   t=%+.1f leaks=%v SNR=%.2f\n",
				ladder.TVLA.T, ladder.TVLA.Leaks, ladder.SNR)
			return nil
		})
		run("mitigation", func() error {
			res, err := core.Mitigation(*seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "Mitigation (Sec. V): before: attacker reads %.3f A; after restriction: attacker error %q; root still reads %.3f A; effective=%v\n",
				res.BeforeAttacker, res.AfterAttackerErr, res.AfterRoot, res.Effective())
			return nil
		})
		return firstErr
	}

	// Artifacts are collected when anything downstream consumes them;
	// each repeat starts from a clean registry so its counters describe
	// exactly one pass (and deterministic counters are comparable
	// between repeats and against the baseline).
	collectArtifacts := *jsonOut != "" || *compare
	var arts []perf.Artifact
	for rep := 0; rep < *repeat; rep++ {
		out := io.Writer(os.Stdout)
		if rep > 0 {
			out = io.Discard
		}
		obs.Default.Reset()
		repStart := time.Now()
		if err := experiments(out); err != nil {
			fail(err)
		}
		if !collectArtifacts {
			continue
		}
		pb, err := benchParallel(*seed, *parallel)
		if err != nil {
			fail(fmt.Errorf("parallel bench: %w", err))
		}
		sb, err := benchSpectrum(*seed)
		if err != nil {
			fail(fmt.Errorf("spectrum bench: %w", err))
		}
		arts = append(arts, makeArtifact(*exp, *seed, time.Since(repStart), pb, sb))
	}

	if *jsonOut != "" {
		if err := perf.WriteFile(*jsonOut, arts); err != nil {
			fail(err)
		}
		fmt.Printf("perf artifact written to %s (%d repeat(s))\n", *jsonOut, len(arts))
	}
	workers := *parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := sess.Finish(os.Stdout, &ledger.RunInfo{
		Tool:    "benchtab",
		Command: *exp,
		Args:    os.Args[1:],
		Board:   "zcu102",
		Seed:    *seed,
		Workers: workers,
	}); err != nil {
		fail(err)
	}
	if *compare {
		base, err := perf.ReadFile(*baseline)
		if err != nil {
			fail(err)
		}
		cmp, err := perf.Compare(base, arts, *regressPct)
		if err != nil {
			fail(err)
		}
		if err := report.RenderPerfComparison(os.Stdout, cmp); err != nil {
			fail(err)
		}
		if cmp.Failed() {
			fmt.Fprintln(os.Stderr, "benchtab: perf comparison FAILED")
			os.Exit(1)
		}
	}
}

// benchParallel runs the cross-board applicability sweep twice — once
// on a single worker, once on the requested worker count — and measures
// aggregate engine throughput for each from the obs sim.ticks delta.
func benchParallel(seed int64, workers int) (*perf.ParallelBench, error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	measure := func(w int) (float64, error) {
		before := obs.Default.Snapshot().Counter("sim.ticks")
		start := time.Now()
		if _, err := core.Applicability(core.ApplicabilityConfig{
			Seed:        seed,
			Parallelism: w,
		}); err != nil {
			return 0, err
		}
		wall := time.Since(start).Seconds()
		ticks := obs.Default.Snapshot().Counter("sim.ticks") - before
		if wall <= 0 {
			return 0, nil
		}
		return float64(ticks) / wall, nil
	}
	serial, err := measure(1)
	if err != nil {
		return nil, err
	}
	par, err := measure(workers)
	if err != nil {
		return nil, err
	}
	pb := &perf.ParallelBench{
		Workers:             workers,
		SerialTicksPerSec:   serial,
		ParallelTicksPerSec: par,
	}
	if serial > 0 {
		pb.Speedup = par / serial
	}
	return pb, nil
}

// benchSpectrum times the spectral transform at the paper-scale shape —
// a 5 s capture at the root-retuned 2 ms interval (10000 samples),
// bins up to Nyquist (2500) — once through the production FFT path and
// once through the Goertzel reference. It runs on a synthetic trace and
// touches no simulation or obs state, so it cannot perturb the
// deterministic-counter gate.
func benchSpectrum(seed int64) (*perf.SpectrumBench, error) {
	const (
		samples = 10000
		bins    = 2500
	)
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{Interval: 2 * time.Millisecond, Samples: make([]float64, samples)}
	for i := range tr.Samples {
		tr.Samples[i] = 1.5 + math.Sin(2*math.Pi*7*float64(i)/samples) + 0.1*rng.NormFloat64()
	}
	timeIt := func(f func() error, minReps int, minWall time.Duration) (float64, error) {
		if err := f(); err != nil { // warm scratch pools, page in code
			return 0, err
		}
		reps := 0
		start := time.Now()
		for reps < minReps || time.Since(start) < minWall {
			if err := f(); err != nil {
				return 0, err
			}
			reps++
		}
		wall := time.Since(start).Seconds()
		if wall <= 0 {
			return 0, nil
		}
		return float64(bins) * float64(reps) / wall, nil
	}
	fftRate, err := timeIt(func() error { _, err := tr.Spectrum(bins); return err }, 10, 200*time.Millisecond)
	if err != nil {
		return nil, err
	}
	goertzelRate, err := timeIt(func() error { _, err := tr.SpectrumGoertzel(bins); return err }, 2, 200*time.Millisecond)
	if err != nil {
		return nil, err
	}
	sb := &perf.SpectrumBench{
		Samples:            samples,
		Bins:               bins,
		GoertzelBinsPerSec: goertzelRate,
		FFTBinsPerSec:      fftRate,
	}
	if goertzelRate > 0 {
		sb.Speedup = fftRate / goertzelRate
	}
	return sb, nil
}

// makeArtifact snapshots the obs registry and derives the headline
// throughput numbers the perf trajectory tracks.
func makeArtifact(exp string, seed int64, wall time.Duration, pb *perf.ParallelBench, sb *perf.SpectrumBench) perf.Artifact {
	snap := obs.Default.Snapshot()
	art := perf.Artifact{
		SchemaVersion: perf.SchemaVersion,
		Experiment:    exp,
		Seed:          seed,
		WallSeconds:   wall.Seconds(),
		SimTicks:      snap.Counter("sim.ticks"),
		Parallel:      pb,
		Spectrum:      sb,
		Obs:           snap,
	}
	if wall > 0 {
		art.TicksPerSec = float64(art.SimTicks) / wall.Seconds()
	}
	if engineWall := snap.Counter("sim.walltime_ns"); engineWall > 0 {
		art.SimWallRatio = float64(snap.Counter("sim.simtime_ns")) / float64(engineWall)
	}
	if h, ok := snap.Histogram("attacker.sample_rate_hz"); ok {
		art.SampleRate = h
	}
	return art
}
