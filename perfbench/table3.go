package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/dpu"
	"repro/internal/imagenet"
	"repro/internal/ml/crossval"
	"repro/internal/ml/features"
	"repro/internal/ml/rforest"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

var table3Workload = workload{
	name:   "table3",
	why:    "Table III campaign: 39 models x 10 captures, 10-fold 100-tree forests; forest training dominates, simulation second",
	setup:  setupTable3,
	run:    func(e *env) (*outcome, error) { return runTable3(e, nil) },
	traced: runTable3,
}

// Table III's grid, shrunk to fit the run length on the channel ×
// duration axes only: the classes (all 39 zoo models), captures per
// model, folds, trees, depth and features per split stay the paper's.
// FPGA current is the paper's best channel and FPGA voltage its worst,
// so the two rows carry the channel-ordering check.
var (
	table3Channels = []core.Channel{
		{Label: board.SensorFPGA, Kind: core.Current},
		{Label: board.SensorFPGA, Kind: core.Voltage},
	}
	table3Durations = []time.Duration{time.Second, 2 * time.Second}
)

func table3Config(e *env) core.FingerprintConfig {
	return core.FingerprintConfig{
		Seed:           e.seed,
		TracesPerModel: 10,
		TraceDuration:  table3Durations[len(table3Durations)-1],
		Warmup:         200 * time.Millisecond,
		Channels:       table3Channels,
		Durations:      table3Durations,
		Folds:          10,
		Trees:          100,
		MaxDepth:       32,
		Bins:           features.DefaultBins,
		Parallelism:    e.workers,
	}
}

// setupTable3 builds the zoo and runs a miniature of the campaign, two
// one-second captures of every model and one two-fold cell, so every
// zoo model, the capture path and the forest are warm.
func setupTable3(e *env) error {
	if n := len(dpu.Zoo()); n != 39 {
		return fmt.Errorf("zoo has %d models, want 39", n)
	}
	cfg := table3Config(e)
	cfg.TracesPerModel, cfg.Folds, cfg.Trees = 2, 2, 10
	cfg.TraceDuration, cfg.Durations, cfg.Channels = time.Second, table3Durations[:1], table3Channels[:1]
	caps, err := core.CollectDPUTraces(cfg)
	if err != nil {
		return err
	}
	_, err = core.EvaluateCaptures(cfg, caps)
	return err
}

// runTable3 runs one campaign: untraced through core.CollectDPUTraces
// and core.EvaluateCaptures when t is nil, otherwise rebuilt from the
// same public calls with every layer call timed.
func runTable3(e *env, t *tracer) (*outcome, error) {
	cfg := table3Config(e)
	mark := markShards()
	var caps []*core.Capture
	var cells []core.AccuracyCell
	if t == nil {
		var err error
		if caps, err = core.CollectDPUTraces(cfg); err != nil {
			return nil, err
		}
		res, err := core.EvaluateCaptures(cfg, caps)
		if err != nil {
			return nil, err
		}
		cells = res.Cells
	} else {
		_, err := t.runPhase("collect", cfg.Parallelism, true, func() (err error) {
			caps, err = tracedCollect(t, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		_, err = t.runPhase("evaluate", cfg.Parallelism, true, func() (err error) {
			cells, err = tracedEvaluate(t, cfg, caps)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	ops, failed := mark.since()
	out, err := table3Outcome(t, cfg, caps, cells)
	if err != nil {
		return nil, err
	}
	out.ops, out.failed = ops, failed
	if t != nil {
		if out.layer, err = table3Layers(cfg, caps); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func table3Outcome(t *tracer, cfg core.FingerprintConfig, caps []*core.Capture, cells []core.AccuracyCell) (*outcome, error) {
	classes := map[string]bool{}
	for _, c := range caps {
		classes[c.Model] = true
	}
	res := &core.FingerprintResult{Cells: cells, Captures: caps, Classes: len(classes)}
	var buf bytes.Buffer
	render := func() error { return report.RenderTableIII(&buf, res, cfg.Channels, cfg.Durations) }
	if t == nil {
		if err := render(); err != nil {
			return nil, err
		}
	} else if _, err := t.runPhase("report", 1, false, func() error { return t.timeStage(stageReport, render) }); err != nil {
		return nil, err
	}

	d := newDigester()
	d.text(buf.String())
	if err := d.json(cells); err != nil {
		return nil, err
	}
	for _, c := range caps {
		d.text(fmt.Sprintf("%s/%d", c.Model, c.Rep))
		for _, ch := range cfg.Channels {
			d.floats(c.Traces[ch].Samples)
		}
	}

	// Grid means exactly as core.EvaluateCaptures forms them.
	var top1, top5 float64
	for _, c := range cells {
		top1 += c.Top1
		top5 += c.Top5
	}
	top1 /= float64(len(cells))
	top5 /= float64(len(cells))
	out := &outcome{
		digest: d.sum(),
		quality: map[string]metric{
			"top1_mean": {Value: top1, Unit: "ratio", Base: fmt.Sprintf("held-out captures, mean over %d cells", len(cells))},
			"top5_mean": {Value: top5, Unit: "ratio", Base: fmt.Sprintf("held-out captures, mean over %d cells", len(cells))},
		},
	}
	chance := 1 / float64(len(classes))
	out.checks = append(out.checks, checkf("table3.classes", len(classes) == 39, "%d classes", len(classes)))
	for _, dur := range cfg.Durations {
		cur, err := res.Cell(table3Channels[0], dur)
		if err != nil {
			return nil, err
		}
		vol, err := res.Cell(table3Channels[1], dur)
		if err != nil {
			return nil, err
		}
		out.checks = append(out.checks,
			checkf("table3.current_above_chance."+dur.String(), cur.Top1 > chance,
				"FPGA current top1 %.4f vs chance %.4f", cur.Top1, chance),
			checkf("table3.channel_order."+dur.String(), cur.Top1 > vol.Top1,
				"FPGA current top1 %.4f > FPGA voltage top1 %.4f", cur.Top1, vol.Top1))
	}
	return out, nil
}

// tracedCollect is core.CollectDPUTraces rebuilt: the same shard keys
// and seeds on the same runner, each shard a timed tracedCapture.
func tracedCollect(t *tracer, cfg core.FingerprintConfig) ([]*core.Capture, error) {
	var models []string
	err := t.timeStage(stageDPU, func() error {
		for _, m := range dpu.Zoo() {
			models = append(models, m.Name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shards := make([]runner.Shard[*core.Capture], 0, len(models)*cfg.TracesPerModel)
	for _, m := range models {
		for r := 0; r < cfg.TracesPerModel; r++ {
			m, r := m, r
			shards = append(shards, runner.Shard[*core.Capture]{
				Key: fmt.Sprintf("%s/%d", m, r),
				Run: func(ctx context.Context, info runner.Info) (*core.Capture, error) {
					return tracedCapture(ctx, t, cfg, m, r, info.Seed)
				},
			})
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name: "collect", Seed: cfg.Seed, Workers: cfg.Parallelism,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	return runner.Values(results), nil
}

// tracedCapture is one capture of core's collection phase rebuilt from
// public calls: fresh board, DPU victim, one hwmon recorder per channel
// registered on the engine, warm-up, chunked capture, top-up and gap
// padding, in the same order as the library. table3 injects no faults,
// so the recorders' fault hooks are not rebuilt.
func tracedCapture(ctx context.Context, t *tracer, cfg core.FingerprintConfig, modelName string, rep int, seed int64) (*core.Capture, error) {
	start := time.Now()
	b, err := board.NewZCU102(board.Config{Seed: seed, UpdateInterval: cfg.UpdateInterval})
	if err != nil {
		return nil, err
	}
	queries, err := imagenet.New(b.Engine().Stream("queries"))
	if err != nil {
		return nil, err
	}
	engine, err := dpu.NewEngine(dpu.EngineConfig{
		Queries:        queries,
		SetCPUFullUtil: b.CPUFull().SetUtil,
		SetCPULowUtil:  b.CPULow().SetUtil,
		SetDDRUtil:     b.DDR().SetUtil,
	})
	if err != nil {
		return nil, err
	}
	if err := b.Fabric().Place(engine, b.Fabric().SpreadEvenly()); err != nil {
		return nil, err
	}
	build := time.Since(start)
	start = time.Now()
	m, err := dpu.ZooModel(modelName)
	zoo := time.Since(start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := engine.LoadModel(m); err != nil {
		return nil, err
	}
	build += time.Since(start)
	t.add(stageBoardNew, build)
	t.sample("board.new", build, time.Millisecond)
	t.add(stageDPU, zoo)
	t.sample("dpu.zoo_model", zoo, time.Millisecond)

	start = time.Now()
	attacker, err := core.NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return nil, err
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		return nil, err
	}
	interval := dev.UpdateInterval()
	recorders := make(map[core.Channel]*trace.Recorder, len(cfg.Channels))
	for _, ch := range cfg.Channels {
		rec, err := attacker.NewRecorder(ch, interval)
		if err != nil {
			return nil, err
		}
		expect := int((cfg.TraceDuration+interval)/interval) + 1
		rec.Reserve(expect + expect/4 + 2)
		recorders[ch] = rec
	}
	t.add(stageSampling, time.Since(start))

	run := func(d time.Duration) {
		start := time.Now()
		b.Run(d)
		t.add(stageBoardRun, time.Since(start))
	}
	run(cfg.Warmup)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, ch := range cfg.Channels {
		rec := recorders[ch]
		rec.Reset()
		if err := b.Engine().Register(fmt.Sprintf("recorder/%s", ch), rec); err != nil {
			return nil, err
		}
	}
	target := cfg.TraceDuration + interval
	for advanced := time.Duration(0); advanced < target; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := interval
		if advanced+chunk > target {
			chunk = target - advanced
		}
		run(chunk)
		advanced += chunk
	}
	needed := int(cfg.TraceDuration / interval)
	for extra, maxExtra := 0, needed/4+2; extra < maxExtra; extra++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		short := false
		for _, rec := range recorders {
			if tr, err := rec.Trace(); err == nil && len(tr.Samples) < needed {
				short = true
				break
			}
		}
		if !short {
			break
		}
		run(interval)
	}

	capt := &core.Capture{Model: modelName, Rep: rep, Traces: make(map[core.Channel]*trace.Trace)}
	for ch, rec := range recorders {
		tr, err := rec.Trace()
		if err != nil {
			return nil, fmt.Errorf("channel %v: %w", ch, err)
		}
		tr.PadGaps(needed)
		capt.Traces[ch] = tr
	}
	return capt, nil
}

// tracedEvaluate is core.EvaluateCaptures rebuilt: one runner shard
// per (channel, duration) cell with the library's key and seed.
func tracedEvaluate(t *tracer, cfg core.FingerprintConfig, caps []*core.Capture) ([]core.AccuracyCell, error) {
	var shards []runner.Shard[core.AccuracyCell]
	for _, ch := range cfg.Channels {
		for _, d := range cfg.Durations {
			ch, d := ch, d
			key := fmt.Sprintf("eval/%v/%v", ch, d)
			shards = append(shards, runner.Shard[core.AccuracyCell]{
				Key: key,
				Run: func(ctx context.Context, info runner.Info) (core.AccuracyCell, error) {
					return tracedCell(t, cfg, caps, ch, d, key)
				},
			})
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name: "evaluate", Seed: cfg.Seed, Workers: cfg.Parallelism,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	return runner.Values(results), nil
}

// cellDataset builds one cell's feature dataset: the capture prefixes
// of the cell's duration on its channel, one row per capture.
func cellDataset(t *tracer, cfg core.FingerprintConfig, caps []*core.Capture, ch core.Channel, d time.Duration) (*features.Dataset, error) {
	var ds features.Dataset
	var prefixTime, featTime time.Duration
	for _, c := range caps {
		tr, ok := c.Traces[ch]
		if !ok {
			return nil, fmt.Errorf("capture %s/%d lacks channel %v", c.Model, c.Rep, ch)
		}
		start := time.Now()
		prefix, err := tr.Prefix(d)
		prefixTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		vec, err := features.FromTraceWithSpectrum(prefix, cfg.Bins, cfg.SpectralBins)
		featTime += time.Since(start)
		if err != nil {
			return nil, err
		}
		ds.Add(vec, c.Model)
	}
	if t != nil {
		t.add(stageTrace, prefixTime)
		t.add(stageFeatures, featTime)
	}
	return &ds, nil
}

// tracedCell is one Table III cell: dataset, then the cross-validated
// forest of crossval.Evaluate with each train and prediction timed. The
// seed is the library's per-cell derivation (the cell key as a capture
// "model" with rep 0).
func tracedCell(t *tracer, cfg core.FingerprintConfig, caps []*core.Capture, ch core.Channel, d time.Duration, key string) (core.AccuracyCell, error) {
	cellStart := time.Now()
	ds, err := cellDataset(t, cfg, caps, ch, d)
	if err != nil {
		return core.AccuracyCell{}, err
	}
	rng := rand.New(rand.NewSource(runner.ShardSeed(cfg.Seed, key+"/0")))
	top1, top5, err := tracedCrossval(t, ds, rforest.Config{
		Trees: cfg.Trees, MaxDepth: cfg.MaxDepth, Rand: rng,
	}, cfg.Folds, rng)
	if err != nil {
		return core.AccuracyCell{}, err
	}
	t.sample("crossval.cell", time.Since(cellStart), time.Second)
	return core.AccuracyCell{Channel: ch, Duration: d, Top1: top1, Top5: top5}, nil
}

// tracedCrossval follows crossval.EvaluateDetailed call for call: the
// same fold draw, training rows in index order, and top-k scoring.
func tracedCrossval(t *tracer, ds *features.Dataset, fcfg rforest.Config, k int, rng *rand.Rand) (top1, top5 float64, err error) {
	if err := ds.Validate(); err != nil {
		return 0, 0, err
	}
	folds, err := crossval.Folds(ds.Len(), k, rng)
	if err != nil {
		return 0, 0, err
	}
	classes := len(ds.Classes)
	topN := 5
	if topN > classes {
		topN = classes
	}
	var hits1, hitsN, total int
	for fi, test := range folds {
		inTest := make(map[int]bool, len(test))
		for _, i := range test {
			inTest[i] = true
		}
		var trX [][]float64
		var trY []int
		for i := range ds.X {
			if !inTest[i] {
				trX = append(trX, ds.X[i])
				trY = append(trY, ds.Y[i])
			}
		}
		start := time.Now()
		forest, err := rforest.Train(fcfg, trX, trY, classes)
		train := time.Since(start)
		t.add(stageTrain, train)
		t.sample("rforest.train", train, time.Millisecond)
		if err != nil {
			return 0, 0, fmt.Errorf("fold %d: %w", fi, err)
		}
		var predict time.Duration
		for _, i := range test {
			start := time.Now()
			top, err := forest.TopK(ds.X[i], topN)
			call := time.Since(start)
			predict += call
			t.sample("rforest.predict", call, time.Microsecond)
			if err != nil {
				return 0, 0, err
			}
			if top[0] == ds.Y[i] {
				hits1++
			}
			for _, c := range top {
				if c == ds.Y[i] {
					hitsN++
					break
				}
			}
			total++
		}
		t.add(stagePredict, predict)
	}
	if total == 0 {
		return 0, 0, errors.New("no test samples")
	}
	return float64(hits1) / float64(total), float64(hitsN) / float64(total), nil
}

// table3Layers measures, outside the stage accounting, the per-call
// costs of the trace kernels on this run's real captures, of an
// unprivileged sensor read, and the heap allocation of one forest train.
func table3Layers(cfg core.FingerprintConfig, caps []*core.Capture) (map[string]metric, error) {
	var resample, spectrum []float64
	for _, c := range caps {
		tr := c.Traces[table3Channels[0]]
		start := time.Now()
		if _, err := tr.Resample(cfg.Bins); err != nil {
			return nil, err
		}
		resample = append(resample, float64(time.Since(start))/float64(time.Microsecond))
		start = time.Now()
		if _, err := tr.Spectrum(len(tr.Samples) / 2); err != nil {
			return nil, err
		}
		spectrum = append(spectrum, float64(time.Since(start))/float64(time.Microsecond))
	}
	read, err := probeReadNs(board.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	out := map[string]metric{
		"trace.resample_us": {Value: median(resample), Unit: "us", N: len(resample)},
		"trace.spectrum_us": {Value: median(spectrum), Unit: "us", N: len(spectrum)},
		"sampling.read_ns":  read,
	}

	// One serial train on the first cell's first fold, alone in the
	// process, so the allocation delta is the train's own.
	ds, err := cellDataset(nil, cfg, caps, cfg.Channels[0], cfg.Durations[0])
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	var trX [][]float64
	var trY []int
	for i := range ds.X {
		if i%cfg.Folds != 0 {
			trX = append(trX, ds.X[i])
			trY = append(trY, ds.Y[i])
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = rforest.Train(rforest.Config{Trees: cfg.Trees, MaxDepth: cfg.MaxDepth, Rand: rng}, trX, trY, len(ds.Classes))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	out["rforest.alloc_mb_per_train"] = metric{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), Unit: "MB", N: 1}
	return out, nil
}
