package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// layerMetrics builds the per-layer figures of the traced iteration.
// The first set is the JSON line's: layers every workload
// exercises, plus counts, ratios and stage shares, which read 0 where a
// layer is idle. The second holds timings of layers only some workloads
// exercise (forest, features, trace kernels, zoo, jobs, core phases);
// they appear only where measured, in the printed report and the
// results file, so no timing reads a constant 0.
func layerMetrics(t *tracer, a accounting, iters []iteration, traced *outcome, untracedWall, scale float64) (s, specific *metricSet) {
	tracedWall := a.wall.Seconds()
	s, specific = newMetricSet(), newMetricSet()
	count := func(counter string) float64 { return float64(t.sum(counter)) }
	putIf := func(name string, m metric, measured bool) {
		if measured {
			specific.put(name, m)
		}
	}

	for _, p := range []string{"collect", "evaluate", "characterize", "rsa", "tvla", "covert", "applicability"} {
		wall := t.phaseWall(p)
		putIf("core."+p+"_s", metric{Value: wall.Seconds(), Unit: "s"}, wall > 0)
	}

	runS := float64(t.sum("sim.walltime_ns")) / 1e9
	ticks := count("sim.ticks")
	s.put("board.run_s", metric{Value: runS, Unit: "s"})
	s.put("board.ticks", metric{Value: ticks, Unit: "count"})
	s.put("board.tick_ns", metric{Value: ratio(runS*1e9, ticks), Unit: "ns", N: int(ticks)})
	boards := summarize(t.calls["board.new"])
	s.put("board.new_ms", metric{Value: boards.P50, Unit: "ms", N: boards.N})
	s.put("board.boards", metric{Value: float64(boards.N), Unit: "count"})
	zoo := summarize(t.calls["dpu.zoo_model"])
	putIf("dpu.zoo_model_ms", metric{Value: zoo.P50, Unit: "ms", N: zoo.N}, zoo.N > 0)
	s.put("dpu.zoo_model_calls", metric{Value: float64(zoo.N), Unit: "count"})

	var injected float64
	for _, p := range t.phases {
		for name, v := range p.delta {
			if strings.HasPrefix(name, "faults.injected.") {
				injected += float64(v)
			}
		}
	}
	useful := count("core.sampler.samples") + count("trace.samples_recorded")
	attempts := useful + count("core.sampler.retries")
	s.put("sysfs.reads", metric{Value: count("sysfs.reads"), Unit: "count"})
	s.put("sampling.retries", metric{Value: count("core.sampler.retries"), Unit: "count"})
	s.put("sampling.gaps", metric{Value: count("core.sampler.gaps"), Unit: "count"})
	s.put("faults.injected", metric{Value: injected, Unit: "count"})
	s.put("sampling.useful_ratio", metric{Value: ratio(useful, attempts), Unit: "ratio",
		Base: fmt.Sprintf("%.0f read attempts", attempts)})

	feat := a.stages[stageFeatures]
	putIf("features.extract_s", metric{Value: feat.Seconds(), Unit: "s"}, feat > 0)
	trains := summarize(t.calls["rforest.train"])
	s.put("rforest.trains", metric{Value: float64(trains.N), Unit: "count"})
	s.put("rforest.train_ms_tail_pct", metric{Value: trains.TailPct, Unit: "percentile", N: trains.N})
	putIf("rforest.train_ms_p50", metric{Value: trains.P50, Unit: "ms", N: trains.N}, trains.N > 0)
	putIf("rforest.train_ms_tail", metric{Value: trains.Tail, Unit: "ms", N: trains.N}, trains.N > 0)
	predicts := summarize(t.calls["rforest.predict"])
	s.put("rforest.predicts", metric{Value: float64(predicts.N), Unit: "count"})
	putIf("rforest.predict_us", metric{Value: predicts.P50, Unit: "us", N: predicts.N}, predicts.N > 0)
	cells := summarize(t.calls["crossval.cell"])
	s.put("crossval.cells", metric{Value: float64(cells.N), Unit: "count"})
	putIf("crossval.cell_s_p50", metric{Value: cells.P50, Unit: "s", N: cells.N}, cells.N > 0)
	putIf("crossval.cell_s_max", metric{Value: cells.Max, Unit: "s", N: cells.N}, cells.N > 0)

	s.put("runner.utilization", metric{Value: ratio(float64(a.busy), float64(a.sharded)), Unit: "ratio",
		Base: fmt.Sprintf("%.3f worker-s of sharded capacity", a.sharded.Seconds())})
	s.put("runner.idle_s", metric{Value: a.stages[stageIdle].Seconds(), Unit: "s"})
	for _, p := range t.phases {
		if p.sharded {
			capacity := time.Duration(p.workers) * p.wall
			specific.put("runner."+p.name+"_utilization", metric{Value: ratio(float64(p.busy), float64(capacity)),
				Unit: "ratio", Base: fmt.Sprintf("%d workers x %.3f s", p.workers, p.wall.Seconds())})
			specific.put("runner."+p.name+"_idle_s", metric{Value: (capacity - p.busy).Seconds(), Unit: "s"})
		}
	}

	// Workload-specific layer figures the traced iteration measured.
	layer := traced.layer
	for _, l := range []struct{ name, unit string }{
		{"sampling.read_ns", "ns"}, {"rforest.alloc_mb_per_train", "MB"}, {"jobs.rounds", "count"}, {"jobs.checkpoint_bytes", "bytes"},
	} {
		m, ok := layer[l.name]
		if !ok {
			m = metric{Unit: l.unit}
		}
		s.put(l.name, m)
	}
	for _, name := range []string{"trace.spectrum_us", "trace.resample_us", "jobs.checkpoint_ms", "jobs.checkpoint_load_ms", "jobs.resume_s"} {
		m, ok := layer[name]
		putIf(name, m, ok)
	}
	s.put("report.render_ms", metric{Value: float64(a.stages[stageReport]) / 1e6, Unit: "ms"})

	var alloc, gcs, pauses []float64
	for _, it := range iters {
		alloc = append(alloc, it.allocMB)
		gcs = append(gcs, float64(it.gcs))
		pauses = append(pauses, it.pauses)
	}
	s.put("go.alloc_mb", metric{Value: median(alloc), Unit: "MB", N: len(iters)})
	s.put("go.gc_cycles", metric{Value: median(gcs), Unit: "count", N: len(iters)})
	s.put("go.gc_pause_ms", metric{Value: median(pauses), Unit: "ms", N: len(iters)})

	base := fmt.Sprintf("%.3f worker-s of traced capacity", a.capacity.Seconds())
	for _, st := range tracedStages[:len(tracedStages)-1] {
		s.put("stage."+st+"_pct", metric{Value: a.share(st), Unit: "%", Base: base})
	}
	s.put("stage_residual_pct", metric{Value: a.share(stageResidual), Unit: "%", Base: base})
	s.put("trace_overhead_pct", metric{Value: 100 * ratio(tracedWall-untracedWall, untracedWall), Unit: "%",
		Base: fmt.Sprintf("untraced median wall %.4f s", untracedWall)})
	s.put("bench.untraced_wall_s", metric{Value: untracedWall, Unit: "s", N: len(iters)})
	s.put("bench.traced_wall_s", metric{Value: tracedWall, Unit: "s"})
	s.put("bench.host_scale", metric{Value: scale, Unit: "ratio", Base: "reference-kernel speed, see host_scale"})
	return s, specific
}

// printReport writes the human-readable part of the output: host,
// set-up and iteration timings, quality figures, checks, end-to-end
// metrics and, for a traced run, the stage table and layer metrics.
func printReport(w io.Writer, res *result, e2e, host, layers, specific *metricSet, a accounting) {
	h := res.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d workers=%d cpu=%q go=%s commit=%s binary=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.Workers, h.CPUModel, h.GoVersion, h.Commit, h.Binary)
	fmt.Fprintf(w, "host setup_s per repeat: %s\n", fmtList(res.Setups))
	fmt.Fprintf(w, "host wall_s per iteration: %s\n", fmtList(res.Walls))
	fmt.Fprintf(w, "reference kernel s before set-up repeats: %s\n", fmtList(res.SetupRefs))
	fmt.Fprintf(w, "reference kernel s before iterations: %s\n", fmtList(res.IterRefs))
	if res.TracedWall > 0 {
		fmt.Fprintf(w, "traced wall_s: %.4f\n", res.TracedWall)
	}
	fmt.Fprintf(w, "digest: %s\n", res.Digest)
	// Checks of the run's own seed in full; those of the derived
	// iteration seeds only when they fail.
	quiet := 0
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		} else if strings.HasPrefix(c.Name, "seed") {
			quiet++
			continue
		}
		fmt.Fprintf(w, "check %s %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "check ok   on derived iteration seeds: %d more (listed in the results file)\n", quiet)
	fmt.Fprintf(w, "failed_share: %d failed of %d attempted operations\n", res.Failed, res.Attempted)
	printMetrics(w, "quality", res.Quality, sortedNames(res.Quality))
	printMetrics(w, "end-to-end (wall_s scaled by host_scale, setup_s by host_setup_scale)", e2e.m, e2e.names)
	printMetrics(w, "host", host.m, host.names)
	if layers == nil {
		return
	}
	fmt.Fprintf(w, "stage accounting: traced wall %.3f s, capacity %.3f worker-s, dominant stage %s\n",
		a.wall.Seconds(), a.capacity.Seconds(), a.dominant())
	for _, st := range tracedStages {
		fmt.Fprintf(w, "  %-16s %9.3f s %6.2f%%\n", st, a.stages[st].Seconds(), a.share(st))
	}
	printMetrics(w, "per-layer", layers.m, layers.names)
	printMetrics(w, "per-layer, where the workload exercises the layer", specific.m, specific.names)
}

func printMetrics(w io.Writer, title string, m map[string]metric, names []string) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		v := m[n]
		line := fmt.Sprintf("  %-28s %.6g %s", n, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" (n=%d)", v.N)
		}
		if v.Base != "" {
			line += " of " + v.Base
		}
		fmt.Fprintln(w, line)
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
