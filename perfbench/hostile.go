package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/jobs"
	"repro/internal/jobs/kinds"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
)

var hostileWorkload = workload{
	name:   "hostile_resume",
	why:    "checkpointed Fig. 2 job under the hostile fault profile, then a resume from round 10; sysfs retries, gaps and checkpoint I/O",
	setup:  setupHostile,
	run:    func(e *env) (*outcome, error) { return runHostile(e, nil) },
	traced: runHostile,
}

const (
	// hostileSamplesPerLevel sets the sweep's read volume: 161 levels ×
	// 200 updates × 3 channels, ~96k sampler reads per leg at seed 1.
	hostileSamplesPerLevel = 200
	// hostileResumeRound is the committed round barrier the resume leg
	// starts from (of 21 rounds at the default round size of 8).
	hostileResumeRound = 10
)

func hostileSpec(e *env, checkpoint string) jobs.Spec {
	return jobs.Spec{
		Kind:           "characterize",
		Seed:           e.seed,
		Board:          "ZCU102",
		FaultProfile:   "hostile",
		FaultIntensity: 1,
		Config:         json.RawMessage(fmt.Sprintf(`{"samples_per_level":%d}`, hostileSamplesPerLevel)),
		Workers:        e.workers,
		CheckpointPath: checkpoint,
	}
}

// hostileProfile is the fault profile the characterize kind derives
// from hostileSpec.
func hostileProfile() (*faults.Profile, error) {
	p, err := faults.Preset("hostile")
	if err != nil {
		return nil, err
	}
	p, err = p.Scale(1)
	return &p, err
}

// setupHostile creates the checkpoint directory and runs a 16-level,
// two-round checkpointed miniature of the job under the same faults.
func setupHostile(e *env) error {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.dir, "setup.ckpt")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	kind, err := kinds.Lookup("characterize")
	if err != nil {
		return err
	}
	spec := hostileSpec(e, path)
	spec.Config = json.RawMessage(`{"levels":16,"samples_per_level":20}`)
	keys, err := kind.Plan(spec)
	if err != nil {
		return err
	}
	_, err = jobs.Run(context.Background(), spec, keys, func(ctx context.Context, info runner.Info) (json.RawMessage, error) {
		return kind.Shard(ctx, spec, info)
	})
	return err
}

// leg is one jobs.Run of the sweep and what it left behind.
type leg struct {
	out      *jobs.Outcome
	counters map[string]int64 // registry after the leg; it starts from zero
	wall     time.Duration
}

// runHostile runs the sweep uninterrupted with checkpoints, keeping a
// copy of the checkpoint committed at hostileResumeRound, then resumes
// a second run from that copy. Each leg starts from a zeroed obs
// registry, as a fresh process would. Untraced shards run the
// characterize kind; traced shards run tracedLevel.
func runHostile(e *env, t *tracer) (*outcome, error) {
	kind, err := kinds.Lookup("characterize")
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Join(e.dir, "sweep.ckpt")
	snap := filepath.Join(e.dir, fmt.Sprintf("round%d.ckpt", hostileResumeRound))
	for _, p := range []string{ckpt, snap} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	var saveMs float64
	specA := hostileSpec(e, ckpt)
	specA.OnBarrier = func(cp *jobs.Checkpoint, round int) error {
		if round != hostileResumeRound {
			return nil
		}
		start := time.Now()
		err := jobs.SaveCheckpoint(snap, cp)
		saveMs = float64(time.Since(start)) / float64(time.Millisecond)
		return err
	}
	specB := hostileSpec(e, snap)
	keys, err := kind.Plan(specA)
	if err != nil {
		return nil, err
	}

	var banked map[string]int64
	var loadMs float64
	runLeg := func(name string, spec jobs.Spec) (leg, error) {
		shard := func(ctx context.Context, info runner.Info) (json.RawMessage, error) {
			if t == nil {
				return kind.Shard(ctx, spec, info)
			}
			return tracedShard(t, e.seed, info)
		}
		obs.Default.Reset()
		var l leg
		run := func() (err error) {
			start := time.Now()
			l.out, err = jobs.Run(context.Background(), spec, keys, shard)
			l.wall = time.Since(start)
			return err
		}
		if t == nil {
			err = run()
		} else {
			var p *phase
			p, err = t.runPhase(name, e.workers, true, run)
			if p != nil && banked != nil {
				// The resume seeds the zeroed registry with the counters
				// banked in the checkpoint; only the rest is this leg's.
				p.delta = counterDelta(p.delta, banked)
			}
		}
		if err != nil {
			return leg{}, fmt.Errorf("%s: %w", name, err)
		}
		l.counters = obs.Default.Snapshot().Counters
		return l, nil
	}
	a, err := runLeg("jobs.run", specA)
	if err != nil {
		return nil, err
	}
	if t != nil {
		start := time.Now()
		cp, err := jobs.LoadCheckpoint(snap)
		if err != nil {
			return nil, err
		}
		loadMs = float64(time.Since(start)) / float64(time.Millisecond)
		banked = cp.Counters
	}
	b, err := runLeg("jobs.resume", specB)
	if err != nil {
		return nil, err
	}

	resA, err := kind.Aggregate(specA, a.out)
	if err != nil {
		return nil, err
	}
	resB, err := kind.Aggregate(specB, b.out)
	if err != nil {
		return nil, err
	}
	fig2 := resA.(*core.CharacterizeResult)
	var buf bytes.Buffer
	render := func() error { return report.RenderFig2(&buf, fig2) }
	if t == nil {
		err = render()
	} else {
		_, err = t.runPhase("report", 1, false, func() error { return t.timeStage(stageReport, render) })
	}
	if err != nil {
		return nil, err
	}

	jsonA, err := json.Marshal(resA)
	if err != nil {
		return nil, err
	}
	jsonB, err := json.Marshal(resB)
	if err != nil {
		return nil, err
	}
	d := newDigester()
	d.text(buf.String())
	d.h.Write(jsonA)
	for _, k := range keys {
		d.text(k)
		d.h.Write(a.out.Results[k])
	}

	samples := a.counters["core.sampler.samples"]
	gaps := a.counters["core.sampler.gaps"]
	out := &outcome{
		digest: d.sum(),
		quality: map[string]metric{
			"fig2_current_r": {Value: fig2.Current.Pearson, Unit: "r"},
			"gap_share": {Value: ratio(float64(gaps), float64(samples+gaps)), Unit: "ratio",
				Base: fmt.Sprintf("%d samples recorded (uninterrupted leg)", samples+gaps)},
		},
		checks: []check{
			checkf("resume.results_identical", sameResults(a.out, b.out) && bytes.Equal(jsonA, jsonB),
				"%d shards, %d resumed from round %d", len(keys), b.out.ResumedShards, hostileResumeRound),
			checkf("resume.counters_identical", reflect.DeepEqual(deterministic(a.counters), deterministic(b.counters)),
				"deterministic obs counters of the uninterrupted and resumed legs"),
			checkf("resume.from_round", b.out.ResumedShards == hostileResumeRound*8,
				"%d shards resumed, want %d", b.out.ResumedShards, hostileResumeRound*8),
			checkf("hostile.gaps_present", gaps > 0 && a.counters["core.sampler.retries"] > 0,
				"%d gaps, %d retries: the fault path ran", gaps, a.counters["core.sampler.retries"]),
			checkf("hostile.current_tracks_level", fig2.Current.Pearson > 0,
				"r=%.4f, want > 0", fig2.Current.Pearson),
		},
		ops:    2 * len(keys),
		failed: len(a.out.Quarantined) + len(b.out.Quarantined),
	}
	if t != nil {
		out.layer, err = hostileLayers(e, ckpt, a, b, saveMs, loadMs)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sameResults reports whether two outcomes hold byte-identical shard
// results and the same quarantine set.
func sameResults(a, b *jobs.Outcome) bool {
	if len(a.Results) != len(b.Results) || !reflect.DeepEqual(a.Quarantined, b.Quarantined) {
		return false
	}
	for k, v := range a.Results {
		if !bytes.Equal(v, b.Results[k]) {
			return false
		}
	}
	return true
}

// deterministic drops the wall-clock counters, which differ run to run.
func deterministic(c map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(c))
	for k, v := range c {
		if v != 0 && !strings.Contains(k, "walltime") {
			out[k] = v
		}
	}
	return out
}

// tracedShard is the characterize kind's shard rebuilt: level from the
// key, the kind's config, tracedLevel, JSON.
func tracedShard(t *tracer, seed int64, info runner.Info) (json.RawMessage, error) {
	level, err := strconv.Atoi(info.Key[strings.LastIndexByte(info.Key, '/')+1:])
	if err != nil {
		return nil, fmt.Errorf("shard key %q: %w", info.Key, err)
	}
	cfg := characterizeConfig(seed, hostileSamplesPerLevel)
	if cfg.Faults, err = hostileProfile(); err != nil {
		return nil, err
	}
	reading, err := tracedLevel(t, cfg, info.Seed, level)
	if err != nil {
		return nil, err
	}
	return json.Marshal(reading)
}

// hostileLayers reports the jobs layer (rounds, final checkpoint size,
// the save of the round-10 checkpoint and its load before the resume,
// the resume leg's wall time) and the read cost under the faults.
func hostileLayers(e *env, ckpt string, a, b leg, saveMs, loadMs float64) (map[string]metric, error) {
	st, err := os.Stat(ckpt)
	if err != nil {
		return nil, err
	}
	p, err := hostileProfile()
	if err != nil {
		return nil, err
	}
	read, err := probeReadNs(board.Config{Seed: e.seed, Faults: p})
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"jobs.rounds":             {Value: float64(a.out.Rounds), Unit: "count"},
		"jobs.checkpoint_bytes":   {Value: float64(st.Size()), Unit: "bytes"},
		"jobs.checkpoint_ms":      {Value: saveMs, Unit: "ms", N: 1},
		"jobs.checkpoint_load_ms": {Value: loadMs, Unit: "ms", N: 1},
		"jobs.resume_s":           {Value: b.wall.Seconds(), Unit: "s"},
		"sampling.read_ns":        read,
	}, nil
}
