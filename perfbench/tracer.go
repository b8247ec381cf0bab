package main

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// The traced run measures each layer from outside: it times the calls
// the benchmark makes into a layer's public functions and reads the
// counters the program already exports through obs.Default. Timings are
// kept in worker-time: a phase run on W workers for wall time T offers
// W×T of capacity, and every stage's self-time is summed over workers,
// so the stages of a phase plus its runner idle time add up to its
// capacity, less a residual nothing measured covers.

// Stage names of the accounting table.
const (
	stageBoard      = "board"       // sim engine ticks: sim.walltime_ns
	stageBoardRun   = "board.run"   // direct Board.Run calls (inside stageBoard)
	stageBoardNew   = "board.new"   // board build plus victim deploy
	stageDPU        = "dpu"         // dpu.ZooModel
	stageSampling   = "sampling"    // sampler calls, less the board time inside them
	stageSampleCall = "sample.call" // Sampler.Sample/Read, inclusive
	stageTrace      = "trace"       // trace.Prefix and friends
	stageFeatures   = "features"    // features.FromTraceWithSpectrum
	stageTrain      = "rforest.train"
	stagePredict    = "rforest.predict"
	stageReport     = "report"
	stageIdle       = "runner.idle" // workers × phase wall − shard busy time
	stageResidual   = "residual"
)

// tracedStages lists the stages of the accounting table in report order.
var tracedStages = []string{
	stageBoard, stageBoardNew, stageDPU, stageSampling, stageTrace,
	stageFeatures, stageTrain, stagePredict, stageReport, stageIdle,
	stageResidual,
}

// phase is one stretch of the traced run with a fixed worker count.
type phase struct {
	name    string
	workers int
	sharded bool // work runs as runner shards, so idle is measurable
	wall    time.Duration
	busy    time.Duration    // runner.shard_ns accumulated in the phase
	delta   map[string]int64 // obs counter deltas over the phase
	self    map[string]time.Duration
}

// tracer accumulates the traced run. add is safe from shard goroutines.
type tracer struct {
	mu     sync.Mutex
	cur    *phase
	phases []*phase
	calls  map[string][]float64 // per-call durations for distributions
}

func newTracer() *tracer {
	return &tracer{calls: map[string][]float64{}}
}

// add charges d to stage in the current phase.
func (t *tracer) add(stage string, d time.Duration) {
	t.mu.Lock()
	t.cur.self[stage] += d
	t.mu.Unlock()
}

// sample records one call's duration, in the unit scale gives, under op,
// for percentile reporting.
func (t *tracer) sample(op string, d time.Duration, scale time.Duration) {
	t.mu.Lock()
	t.calls[op] = append(t.calls[op], float64(d)/float64(scale))
	t.mu.Unlock()
}

// timeStage runs f and charges its duration to stage.
func (t *tracer) timeStage(stage string, f func() error) error {
	start := time.Now()
	err := f()
	t.add(stage, time.Since(start))
	return err
}

// runPhase runs f as a phase and records its wall time, runner busy
// time and counter deltas.
func (t *tracer) runPhase(name string, workers int, sharded bool, f func() error) (*phase, error) {
	p := &phase{name: name, workers: workers, sharded: sharded, self: map[string]time.Duration{}}
	t.mu.Lock()
	t.cur = p
	t.mu.Unlock()
	before := obs.Default.Snapshot()
	start := time.Now()
	err := f()
	p.wall = time.Since(start)
	after := obs.Default.Snapshot()
	p.delta = counterDelta(after.Counters, before.Counters)
	p.busy = time.Duration(histSum(after, "runner.shard_ns") - histSum(before, "runner.shard_ns"))
	t.mu.Lock()
	t.phases = append(t.phases, p)
	t.mu.Unlock()
	return p, err
}

// histSum is the total of the named histogram's observations.
func histSum(s obs.Snapshot, name string) float64 {
	h := s.Histograms[name]
	return float64(h.Count) * h.Mean
}

// counterDelta is after−before per counter.
func counterDelta(after, before map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds a counter's deltas over every phase.
func (t *tracer) sum(counter string) int64 {
	var n int64
	for _, p := range t.phases {
		n += p.delta[counter]
	}
	return n
}

// phaseWall is the wall time of the phases with the given name.
func (t *tracer) phaseWall(name string) time.Duration {
	var d time.Duration
	for _, p := range t.phases {
		if p.name == name {
			d += p.wall
		}
	}
	return d
}

// accounting is the stage table of one traced run.
type accounting struct {
	wall     time.Duration            // traced wall time, single caller
	capacity time.Duration            // Σ workers × phase wall, plus time between phases
	stages   map[string]time.Duration // self-time per stage, worker-time
	busy     time.Duration            // runner shard time in sharded phases
	sharded  time.Duration            // capacity of sharded phases
}

// account builds the stage table for a traced run of the given wall
// time. Board time is the sim.walltime_ns the engine itself exports;
// board time not under a direct board.run timer lies inside the
// sampler calls of that phase and is taken out of the sampling stage.
func (t *tracer) account(wall time.Duration) accounting {
	a := accounting{wall: wall, stages: map[string]time.Duration{}}
	var phaseWall time.Duration
	for _, p := range t.phases {
		phaseWall += p.wall
		capacity := time.Duration(p.workers) * p.wall
		a.capacity += capacity
		board := time.Duration(p.delta["sim.walltime_ns"])
		a.stages[stageBoard] += board
		covered := board
		for stage, d := range p.self {
			switch stage {
			case stageBoardRun:
				continue // already inside board
			case stageSampleCall:
				d -= board - p.self[stageBoardRun]
				stage = stageSampling
			}
			a.stages[stage] += d
			covered += d
		}
		if p.sharded {
			idle := capacity - p.busy
			a.stages[stageIdle] += idle
			covered += idle
			a.busy += p.busy
			a.sharded += capacity
		}
		a.stages[stageResidual] += capacity - covered
	}
	// Time between phases (snapshots, digests) is single-caller time no
	// stage covers.
	if gap := wall - phaseWall; gap > 0 {
		a.capacity += gap
		a.stages[stageResidual] += gap
	}
	return a
}

// share is a stage's percentage of the run's capacity.
func (a accounting) share(stage string) float64 {
	return 100 * ratio(float64(a.stages[stage]), float64(a.capacity))
}

// dominant is the measured stage with the largest self-time (runner
// idle and the residual excluded).
func (a accounting) dominant() string {
	best := ""
	for s, d := range a.stages {
		if s == stageIdle || s == stageResidual {
			continue
		}
		if best == "" || d > a.stages[best] || (d == a.stages[best] && s < best) {
			best = s
		}
	}
	return best
}
