package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/ro"
	"repro/internal/runner"
	"repro/internal/sysfs"
	"repro/internal/virus"
)

var sensingWorkload = workload{
	name:   "sensing",
	why:    "every classifier-free result (Fig. 2, Fig. 4, TVLA x2, covert, applicability); board tick loop dominates, forest never runs",
	setup:  setupSensing,
	run:    func(e *env) (*outcome, error) { return runSensing(e, nil) },
	traced: runSensing,
}

// sensingSamplesPerLevel is the Fig. 2 averaging budget, benchtab's
// default for the fig2 experiment.
const sensingSamplesPerLevel = 20

// characterizeConfig is the Fig. 2 sweep with the library defaults
// spelled out, so the rebuilt per-level path uses the same values as
// the normalizing entry points.
func characterizeConfig(seed int64, samples int) core.CharacterizeConfig {
	return core.CharacterizeConfig{
		Seed:            seed,
		Levels:          core.DefaultCharacterizeLevels,
		SamplesPerLevel: samples,
		WarmupUpdates:   3,
	}
}

// setupSensing checks the board catalog and runs a miniature of each
// classifier-free experiment.
func setupSensing(e *env) error {
	if n := len(board.Catalog()); n != 8 {
		return fmt.Errorf("board catalog has %d boards, want 8", n)
	}
	seed, w := e.seed, e.workers
	if _, err := core.Characterize(core.CharacterizeConfig{Seed: seed, Levels: 11, SamplesPerLevel: 10, Parallelism: w}); err != nil {
		return err
	}
	if _, err := core.RSAHammingWeight(core.RSAConfig{Seed: seed, Weights: []int{1, 1024}, Samples: 500, Parallelism: w}); err != nil {
		return err
	}
	if _, err := core.AssessRSALeakage(core.LeakageConfig{Seed: seed, SamplesPerSession: 100, RandomSessions: 1}); err != nil {
		return err
	}
	if _, err := core.CovertTransmit(core.CovertConfig{Seed: seed, PayloadBits: 16, Parallelism: w}); err != nil {
		return err
	}
	_, err := core.Applicability(core.ApplicabilityConfig{Seed: seed, Levels: 3, SamplesPerLevel: 2, Parallelism: w})
	return err
}

// sensingResult gathers the sensing workload's outputs.
type sensingResult struct {
	Fig2          *core.CharacterizeResult
	Fig4          *core.RSAResult
	TVLA, Ladder  *core.LeakageResult
	Covert        *core.CovertResult
	Applicability []core.BoardApplicability
}

// runSensing runs every classifier-free experiment once. The traced
// run rebuilds Characterize from CharacterizeLevel's public calls and
// times the other entry points whole, reading the board's own counters
// for the time spent ticking inside them.
func runSensing(e *env, t *tracer) (*outcome, error) {
	seed, w := e.seed, e.workers
	mark := markShards()
	var r sensingResult
	steps := []struct {
		name    string
		workers int
		sharded bool
		run     func() error
	}{
		{"characterize", w, true, func() (err error) {
			cfg := characterizeConfig(seed, sensingSamplesPerLevel)
			if t == nil {
				cfg.Parallelism = w
				r.Fig2, err = core.Characterize(cfg)
				return err
			}
			r.Fig2, err = tracedCharacterize(t, cfg, w)
			return err
		}},
		{"rsa", w, false, func() (err error) {
			r.Fig4, err = core.RSAHammingWeight(core.RSAConfig{Seed: seed, Parallelism: w})
			return err
		}},
		{"tvla", 1, false, func() (err error) {
			if r.TVLA, err = core.AssessRSALeakage(core.LeakageConfig{Seed: seed}); err != nil {
				return err
			}
			r.Ladder, err = core.AssessRSALeakage(core.LeakageConfig{Seed: seed, Countermeasure: true})
			return err
		}},
		{"covert", w, true, func() (err error) {
			r.Covert, err = core.CovertTransmit(core.CovertConfig{Seed: seed, Parallelism: w})
			return err
		}},
		{"applicability", w, true, func() (err error) {
			r.Applicability, err = core.Applicability(core.ApplicabilityConfig{Seed: seed, Parallelism: w})
			return err
		}},
	}
	for _, s := range steps {
		var err error
		if t == nil {
			err = s.run()
		} else {
			_, err = t.runPhase(s.name, s.workers, s.sharded, s.run)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	ops, failed := mark.since()

	var buf bytes.Buffer
	render := func() error {
		if err := report.RenderFig2(&buf, r.Fig2); err != nil {
			return err
		}
		if err := report.RenderFig4(&buf, r.Fig4); err != nil {
			return err
		}
		return report.RenderApplicability(&buf, r.Applicability)
	}
	if t == nil {
		if err := render(); err != nil {
			return nil, err
		}
	} else if _, err := t.runPhase("report", 1, false, func() error { return t.timeStage(stageReport, render) }); err != nil {
		return nil, err
	}
	d := newDigester()
	d.text(buf.String())
	if err := d.json(r); err != nil {
		return nil, err
	}

	out := &outcome{
		digest: d.sum(),
		quality: map[string]metric{
			"fig2_current_r":      {Value: r.Fig2.Current.Pearson, Unit: "r"},
			"fig4_current_groups": {Value: float64(r.Fig4.CurrentGroups), Unit: "count"},
			"covert_ber":          {Value: r.Covert.BER(), Unit: "ratio", Base: fmt.Sprintf("%d payload bits", r.Covert.BitsSent)},
		},
		checks: []check{
			checkf("fig2.current_r", r.Fig2.Current.Pearson >= 0.99, "r=%.6f, want >= 0.99", r.Fig2.Current.Pearson),
			checkf("fig2.variation_ratio", r.Fig2.VariationRatio >= 150 && r.Fig2.VariationRatio <= 450,
				"ratio=%.1f, want 150..450", r.Fig2.VariationRatio),
			checkf("fig4.current_groups", r.Fig4.CurrentGroups == 17, "%d groups, want 17", r.Fig4.CurrentGroups),
			checkf("tvla.square_multiply_leaks", r.TVLA.TVLA.Leaks, "t=%.1f", r.TVLA.TVLA.T),
			checkf("tvla.ladder_clean", !r.Ladder.TVLA.Leaks, "t=%.2f", r.Ladder.TVLA.T),
			checkf("covert.ber_low", r.Covert.BER() <= 0.05, "BER=%.4f over %d bits, want <= 0.05", r.Covert.BER(), r.Covert.BitsSent),
		},
	}
	for _, row := range r.Applicability {
		out.checks = append(out.checks, checkf("applicability."+row.Board,
			row.CurrentPearson >= 0.99 && row.VoltageInBand,
			"r=%.4f voltage_in_band=%v", row.CurrentPearson, row.VoltageInBand))
	}
	out.ops, out.failed = ops, failed
	if t != nil {
		ns, err := probeReadNs(board.Config{Seed: seed})
		if err != nil {
			return nil, err
		}
		out.layer = map[string]metric{"sampling.read_ns": ns}
	}
	return out, nil
}

// tracedCharacterize is the sharded core.Characterize rebuilt: one
// runner shard per level with the library's key and seed, each a timed
// tracedLevel, then core.FitCharacterize.
func tracedCharacterize(t *tracer, cfg core.CharacterizeConfig, workers int) (*core.CharacterizeResult, error) {
	shards := make([]runner.Shard[core.LevelReading], cfg.Levels)
	for level := range shards {
		level := level
		shards[level] = runner.Shard[core.LevelReading]{
			Key: core.CharacterizeLevelKey(level),
			Run: func(ctx context.Context, info runner.Info) (core.LevelReading, error) {
				return tracedLevel(t, cfg, info.Seed, level)
			},
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name: "characterize", Seed: cfg.Seed, Workers: workers,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	return core.FitCharacterize(runner.Values(results))
}

// tracedLevel is core.CharacterizeLevel rebuilt from public calls: wire
// the board, virus array, RO baseline and three unprivileged samplers,
// then set the level, flush the sensor windows, and average the
// samples. cfg must carry explicit Levels, SamplesPerLevel and
// WarmupUpdates (characterizeConfig).
func tracedLevel(t *tracer, cfg core.CharacterizeConfig, seed int64, level int) (core.LevelReading, error) {
	start := time.Now()
	b, err := board.NewZCU102(board.Config{
		Seed:              seed,
		DisableStabilizer: cfg.DisableStabilizer,
		Faults:            cfg.Faults,
	})
	if err != nil {
		return core.LevelReading{}, err
	}
	array, err := virus.New(virus.Config{Groups: cfg.Levels - 1})
	if err != nil {
		return core.LevelReading{}, err
	}
	if err := array.Deploy(b.Fabric()); err != nil {
		return core.LevelReading{}, err
	}
	fpgaRail, err := b.Rail(board.RailFPGA)
	if err != nil {
		return core.LevelReading{}, err
	}
	bank, err := ro.New(ro.Config{
		NominalVolts:              fpgaRail.NominalVoltage(),
		VoltSensitivity:           1.27,
		Volts:                     fpgaRail.Voltage,
		LocalDroopVoltsPerElement: 2e-9,
		LocalActivity:             b.Fabric().RegionActivity,
		JitterHz:                  50e3,
		Rand:                      b.Engine().Stream("ro-bank"),
	})
	if err != nil {
		return core.LevelReading{}, err
	}
	if err := bank.Deploy(b.Fabric()); err != nil {
		return core.LevelReading{}, err
	}
	attacker, err := core.NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return core.LevelReading{}, err
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		return core.LevelReading{}, err
	}
	interval := dev.UpdateInterval()
	kinds := []core.Kind{core.Current, core.Voltage, core.Power}
	samplers := make([]*core.Sampler, len(kinds))
	for j, k := range kinds {
		if samplers[j], err = core.NewSampler(b, attacker, core.Channel{Label: board.SensorFPGA, Kind: k}, interval); err != nil {
			return core.LevelReading{}, err
		}
	}
	build := time.Since(start)
	t.add(stageBoardNew, build)
	t.sample("board.new", build, time.Millisecond)

	if err := array.SetActiveGroups(level); err != nil {
		return core.LevelReading{}, err
	}
	start = time.Now()
	b.Run(time.Duration(cfg.WarmupUpdates) * interval)
	t.add(stageBoardRun, time.Since(start))
	bank.Sample()

	ctx := context.Background()
	var sum, got [3]float64
	var sumR float64
	var sampling time.Duration
	curSamples := make([]float64, 0, cfg.SamplesPerLevel)
	for s := 0; s < cfg.SamplesPerLevel; s++ {
		for j := range kinds {
			start := time.Now()
			var v float64
			if j == 0 {
				v, err = samplers[j].Sample(ctx)
			} else {
				v, err = samplers[j].Read(ctx)
			}
			sampling += time.Since(start)
			if errors.Is(err, core.ErrSampleLost) {
				continue
			}
			if err != nil {
				return core.LevelReading{}, err
			}
			sum[j] += v
			got[j]++
			if j == 0 {
				curSamples = append(curSamples, v)
			}
		}
		sumR += bank.SampleMean()
	}
	t.add(stageSampleCall, sampling)
	for j, k := range kinds {
		if got[j] == 0 {
			return core.LevelReading{}, fmt.Errorf("level %d: every %s sample lost", level, k)
		}
		sum[j] /= got[j]
	}
	return core.LevelReading{
		ActiveGroups:   level,
		CurrentAmps:    sum[0],
		BusVolts:       sum[1],
		PowerWatts:     sum[2],
		ROCount:        sumR / float64(cfg.SamplesPerLevel),
		CurrentSamples: curSamples,
	}, nil
}

// probeReadNs times the unprivileged FPGA-current read an
// Attacker.Probe returns, on a fresh board built with bc.
func probeReadNs(bc board.Config) (metric, error) {
	const reads = 2000
	b, err := board.NewZCU102(bc)
	if err != nil {
		return metric{}, err
	}
	b.Run(100 * time.Millisecond)
	a, err := core.NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return metric{}, err
	}
	read, err := a.Probe(core.Channel{Label: board.SensorFPGA, Kind: core.Current})
	if err != nil {
		return metric{}, err
	}
	start := time.Now()
	for i := 0; i < reads; i++ {
		_, _ = read() // failed reads under a fault profile are timed too
	}
	return metric{Value: float64(time.Since(start).Nanoseconds()) / reads, Unit: "ns", N: reads}, nil
}
