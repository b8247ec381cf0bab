// Package perf defines the machine-readable performance artifact that
// benchtab emits (BENCH_*.json) and the benchstat-style comparison used
// to gate performance regressions in CI.
//
// An artifact splits into two kinds of content with very different
// stability guarantees:
//
//   - Deterministic metrics — the obs counters, minus anything
//     wall-clock derived. For a fixed seed and configuration these are
//     exact: the simulation executes the same ticks, captures, samples
//     and gaps on every machine and at every worker count. Any drift at
//     all means the simulation changed behaviour, so Compare treats a
//     one-count difference as a hard failure.
//   - Wall-clock rates — ticks/sec, sim/wall ratio, the serial-vs-
//     parallel sweep. These depend on the host; Compare reports them
//     with mean/stddev/95% CI across repeats and only fails when a
//     regression threshold is explicitly requested.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// SchemaVersion identifies the artifact layout. Bump it when fields
// change meaning or move; the golden-schema test pins the layout so a
// bump is a conscious act.
//
// Version history:
//
//	1 — benchtab's original unversioned artifact (no schema_version).
//	2 — schema_version field added; artifact moved to internal/perf.
//	3 — spectrum micro-benchmark section added (additive; older
//	    artifacts simply lack the "spectrum" key and its rates).
const SchemaVersion = 3

// ParallelBench compares the sharded runner against the serial path on
// the cross-board applicability sweep: the same shard set executed with
// one worker and with N, with aggregate engine throughput for each. The
// rows are bit-identical by construction (the runner derives every
// shard's seed from the campaign key, not the schedule), so the two
// runs differ only in wall clock.
type ParallelBench struct {
	// Workers of the parallel run (the -parallel flag, or GOMAXPROCS).
	Workers int `json:"workers"`
	// SerialTicksPerSec is the sweep's engine throughput at one worker.
	SerialTicksPerSec float64 `json:"serial_ticks_per_sec"`
	// ParallelTicksPerSec is the throughput at Workers workers.
	ParallelTicksPerSec float64 `json:"parallel_ticks_per_sec"`
	// Speedup is ParallelTicksPerSec / SerialTicksPerSec. On a
	// single-CPU host this hovers near 1.0; it only reflects the
	// hardware the artifact was produced on, so it is reported, never
	// asserted.
	Speedup float64 `json:"speedup"`
}

// SpectrumBench measures spectral-transform throughput at a paper-scale
// shape (a 5 s capture at the root-retuned 2 ms interval, bins up to
// Nyquist): the production FFT path against the per-bin Goertzel
// reference over the identical trace. Both are pure math on synthetic
// data — the measurement touches no simulation state, so it cannot
// perturb the deterministic counters.
type SpectrumBench struct {
	// Samples and Bins describe the benchmarked transform shape.
	Samples int `json:"samples"`
	Bins    int `json:"bins"`
	// GoertzelBinsPerSec is the reference throughput (bins/second).
	GoertzelBinsPerSec float64 `json:"goertzel_bins_per_sec"`
	// FFTBinsPerSec is the production Spectrum throughput (bins/second).
	FFTBinsPerSec float64 `json:"fft_bins_per_sec"`
	// Speedup is FFTBinsPerSec / GoertzelBinsPerSec.
	Speedup float64 `json:"speedup"`
}

// Artifact is the schema of benchtab's -json output.
type Artifact struct {
	// SchemaVersion is the artifact layout version (SchemaVersion).
	SchemaVersion int `json:"schema_version"`
	// Experiment is the -exp selector the artifact covers.
	Experiment string `json:"experiment"`
	// Seed is the root seed.
	Seed int64 `json:"seed"`
	// WallSeconds is the total wall-clock runtime.
	WallSeconds float64 `json:"wall_seconds"`
	// SimTicks is the number of engine ticks executed across all boards.
	SimTicks int64 `json:"sim_ticks"`
	// TicksPerSec is SimTicks over WallSeconds (aggregate engine
	// throughput; parallel boards push it above one engine's rate).
	TicksPerSec float64 `json:"ticks_per_sec"`
	// SimWallRatio is total simulated time over total in-engine wall
	// time: how much faster than real time the simulation ran.
	SimWallRatio float64 `json:"sim_wall_ratio"`
	// SampleRate summarizes the attacker's achieved sampling rate (Hz).
	SampleRate obs.HistogramStat `json:"attacker_sample_rate_hz"`
	// Parallel is the serial-vs-parallel cross-board sweep comparison.
	Parallel *ParallelBench `json:"parallel,omitempty"`
	// Spectrum is the FFT-vs-Goertzel spectral throughput micro-bench.
	Spectrum *SpectrumBench `json:"spectrum,omitempty"`
	// Obs is the full metrics snapshot.
	Obs obs.Snapshot `json:"obs"`
}

// WriteFile writes artifacts as indented JSON: a single object for one
// artifact (the historical BENCH_*.json shape), an array for repeats.
func WriteFile(path string, arts []Artifact) error {
	if len(arts) == 0 {
		return fmt.Errorf("perf: no artifacts to write")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	var encErr error
	if len(arts) == 1 {
		encErr = enc.Encode(arts[0])
	} else {
		encErr = enc.Encode(arts)
	}
	if encErr != nil {
		f.Close()
		return encErr
	}
	return f.Close()
}

// ReadFile reads a perf artifact file written by any benchtab version:
// a single object or an array of objects.
func ReadFile(path string) ([]Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var arts []Artifact
		if err := json.Unmarshal(data, &arts); err != nil {
			return nil, fmt.Errorf("perf: %s: %w", path, err)
		}
		if len(arts) == 0 {
			return nil, fmt.Errorf("perf: %s: empty artifact array", path)
		}
		return arts, nil
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	return []Artifact{art}, nil
}

// DeterministicCounters returns the artifact's obs counters minus the
// wall-clock derived ones (anything containing "walltime"). For a fixed
// seed and configuration the remainder must be exactly equal between
// runs.
func (a *Artifact) DeterministicCounters() map[string]int64 {
	out := make(map[string]int64, len(a.Obs.Counters))
	for k, v := range a.Obs.Counters {
		if strings.Contains(k, "walltime") {
			continue
		}
		out[k] = v
	}
	return out
}

// Rates returns the artifact's wall-clock dependent figures by name.
func (a *Artifact) Rates() map[string]float64 {
	out := map[string]float64{
		"ticks_per_sec":  a.TicksPerSec,
		"sim_wall_ratio": a.SimWallRatio,
		"wall_seconds":   a.WallSeconds,
	}
	if a.Parallel != nil {
		out["serial_ticks_per_sec"] = a.Parallel.SerialTicksPerSec
		out["parallel_ticks_per_sec"] = a.Parallel.ParallelTicksPerSec
	}
	if a.Spectrum != nil {
		out["spectrum_fft_bins_per_sec"] = a.Spectrum.FFTBinsPerSec
		out["spectrum_goertzel_bins_per_sec"] = a.Spectrum.GoertzelBinsPerSec
	}
	return out
}

// MetricStats summarizes repeated measurements of one rate metric.
type MetricStats struct {
	// N is the number of repeats.
	N int
	// Mean and Stddev of the measurements (sample stddev; zero for one
	// repeat).
	Mean, Stddev float64
	// CI95 is the half-width of the 95% confidence interval of the
	// mean (t-distribution; zero for one repeat).
	CI95 float64
}

// t-distribution 97.5% quantiles for n-1 degrees of freedom (index by
// df, capped); df >= 30 uses the normal approximation.
var t975 = []float64{0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447,
	2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
	2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
	2.060, 2.056, 2.052, 2.048, 2.045}

// Stats computes MetricStats over repeated measurements.
func Stats(values []float64) MetricStats {
	s := MetricStats{N: len(values)}
	if len(values) == 0 {
		return s
	}
	for _, v := range values {
		s.Mean += v
	}
	s.Mean /= float64(len(values))
	if len(values) < 2 {
		return s
	}
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(values)-1))
	df := len(values) - 1
	t := 1.96
	if df < len(t975) {
		t = t975[df]
	}
	s.CI95 = t * s.Stddev / math.Sqrt(float64(len(values)))
	return s
}

// Drift is one deterministic counter that differs between baseline and
// current — by definition a behaviour change, not noise.
type Drift struct {
	// Name of the counter ("(absent)" markers appear in the rendered
	// values when a side lacks it entirely).
	Name string
	// Baseline and Current rendered values.
	Baseline, Current string
}

// RateRow is one wall-clock metric compared across artifact sets.
type RateRow struct {
	// Name of the rate metric.
	Name string
	// Baseline and Current statistics across repeats.
	Baseline, Current MetricStats
	// DeltaPct is (Current.Mean - Baseline.Mean) / Baseline.Mean * 100.
	DeltaPct float64
	// Regressed reports whether the metric crossed the requested
	// regression threshold in the harmful direction.
	Regressed bool
}

// Comparison is the outcome of comparing current artifacts against a
// baseline set.
type Comparison struct {
	// Experiment and Seed shared by both sides.
	Experiment string
	Seed       int64
	// BaselineN and CurrentN are the repeat counts on each side.
	BaselineN, CurrentN int
	// Drift lists deterministic counters that differ — always failures.
	Drift []Drift
	// Rates are the wall-clock metrics, report-only unless RegressPct
	// was set.
	Rates []RateRow
	// RegressPct is the threshold the comparison gated rates on
	// (0 = report-only).
	RegressPct float64
}

// Failed reports whether the comparison should gate (non-zero exit):
// any deterministic drift, or — when a regression threshold was set —
// any rate regression beyond it.
func (c *Comparison) Failed() bool {
	if len(c.Drift) > 0 {
		return true
	}
	for _, r := range c.Rates {
		if r.Regressed {
			return true
		}
	}
	return false
}

// lowerIsBetter marks rate metrics where an increase is the regression.
var lowerIsBetter = map[string]bool{"wall_seconds": true}

// Compare builds the benchstat-style comparison between a baseline
// artifact set and the current one. Both sides must describe the same
// experiment and seed — comparing different runs is a usage error, not
// a regression. regressPct > 0 turns rate deltas beyond that percentage
// (in the harmful direction) into failures; 0 leaves rates report-only.
func Compare(baseline, current []Artifact, regressPct float64) (*Comparison, error) {
	if len(baseline) == 0 || len(current) == 0 {
		return nil, fmt.Errorf("perf: empty artifact set")
	}
	b0, c0 := baseline[0], current[0]
	if b0.Experiment != c0.Experiment {
		return nil, fmt.Errorf("perf: experiment mismatch: baseline %q vs current %q",
			b0.Experiment, c0.Experiment)
	}
	if b0.Seed != c0.Seed {
		return nil, fmt.Errorf("perf: seed mismatch: baseline %d vs current %d",
			b0.Seed, c0.Seed)
	}
	cmp := &Comparison{
		Experiment: c0.Experiment,
		Seed:       c0.Seed,
		BaselineN:  len(baseline),
		CurrentN:   len(current),
		RegressPct: regressPct,
	}

	// Deterministic gate. Counters must agree across every repeat of
	// each side (a repeat that disagrees with its siblings is itself
	// drift) and then between the sides.
	bCounters, err := stableCounters(baseline, "baseline")
	if err != nil {
		return nil, err
	}
	cCounters, err := stableCounters(current, "current")
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for k := range bCounters {
		names[k] = true
	}
	for k := range cCounters {
		names[k] = true
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		bv, okB := bCounters[k]
		cv, okC := cCounters[k]
		switch {
		case okB && !okC:
			cmp.Drift = append(cmp.Drift, Drift{Name: k, Baseline: fmt.Sprintf("%d", bv), Current: "(absent)"})
		case !okB && okC:
			cmp.Drift = append(cmp.Drift, Drift{Name: k, Baseline: "(absent)", Current: fmt.Sprintf("%d", cv)})
		case bv != cv:
			cmp.Drift = append(cmp.Drift, Drift{Name: k, Baseline: fmt.Sprintf("%d", bv), Current: fmt.Sprintf("%d", cv)})
		}
	}

	// Wall-clock rates: stats across repeats, threshold-gated only on
	// request.
	rateNames := map[string]bool{}
	for _, a := range baseline {
		for k := range a.Rates() {
			rateNames[k] = true
		}
	}
	for _, a := range current {
		for k := range a.Rates() {
			rateNames[k] = true
		}
	}
	sortedRates := make([]string, 0, len(rateNames))
	for k := range rateNames {
		sortedRates = append(sortedRates, k)
	}
	sort.Strings(sortedRates)
	collect := func(arts []Artifact, name string) []float64 {
		var vs []float64
		for _, a := range arts {
			if v, ok := a.Rates()[name]; ok {
				vs = append(vs, v)
			}
		}
		return vs
	}
	for _, name := range sortedRates {
		row := RateRow{
			Name:     name,
			Baseline: Stats(collect(baseline, name)),
			Current:  Stats(collect(current, name)),
		}
		if row.Baseline.Mean != 0 {
			row.DeltaPct = (row.Current.Mean - row.Baseline.Mean) / row.Baseline.Mean * 100
		}
		if regressPct > 0 && row.Baseline.N > 0 && row.Current.N > 0 {
			if lowerIsBetter[name] {
				row.Regressed = row.DeltaPct > regressPct
			} else {
				row.Regressed = row.DeltaPct < -regressPct
			}
		}
		cmp.Rates = append(cmp.Rates, row)
	}
	return cmp, nil
}

// stableCounters returns the deterministic counters shared by every
// repeat in the set, erroring when repeats disagree with each other.
func stableCounters(arts []Artifact, side string) (map[string]int64, error) {
	ref := arts[0].DeterministicCounters()
	for i := 1; i < len(arts); i++ {
		cur := arts[i].DeterministicCounters()
		if len(cur) != len(ref) {
			return nil, fmt.Errorf("perf: %s repeat %d has %d deterministic counters, repeat 0 has %d — repeats are not reproducible",
				side, i, len(cur), len(ref))
		}
		for k, v := range ref {
			if cur[k] != v {
				return nil, fmt.Errorf("perf: %s repeat %d disagrees with repeat 0 on %s (%d vs %d) — repeats are not reproducible",
					side, i, k, cur[k], v)
			}
		}
	}
	return ref, nil
}
