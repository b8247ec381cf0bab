package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"repro/internal/obs"
)

// env is what a workload's calls are parameterized by.
type env struct {
	seed    int64
	workers int
	// dir is this process's scratch directory inside the checkout
	// (checkpoints); removed when the benchmark exits.
	dir string
}

// workload is one named benchmark input: a batch job run as a closed
// loop by one caller.
type workload struct {
	name string
	why  string
	// setup prepares what the timed calls need (catalogs, directories,
	// a small warm-up of the same code path). It runs several times;
	// the median is setup_s.
	setup func(e *env) error
	// run is one untraced iteration of the timed phase.
	run func(e *env) (*outcome, error)
	// traced is the same iteration rebuilt from public calls under the
	// tracer; its outputs must be bit-identical to run's.
	traced func(e *env, t *tracer) (*outcome, error)
}

var workloads = []workload{table3Workload, sensingWorkload, hostileWorkload}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// check is one correctness check on an iteration's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// outcome is what one iteration produced.
type outcome struct {
	// digest is a SHA-256 over every output the iteration produced:
	// result values, rendered reports and, for table3, the raw traces.
	digest string
	// quality holds the workload's paper-outcome figures by name.
	quality map[string]metric
	// checks are the paper-shape invariants of this workload.
	checks []check
	// ops and failed count the iteration's runner/jobs shards; a
	// failed or quarantined shard is a failed operation.
	ops, failed int
	// layer holds workload-specific per-layer figures of a traced run.
	layer map[string]metric
}

// digester hashes outputs in a fixed order.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) json(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	d.h.Write(b)
	return nil
}

func (d *digester) text(s string) { d.h.Write([]byte(s)) }

// floats hashes exact bit patterns, so NaN gaps and -0 are covered too.
func (d *digester) floats(xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// shardMark is a reading of the runner's shard counters.
type shardMark struct{ done, failed int64 }

func markShards() shardMark {
	return shardMark{obs.C("runner.shards").Value(), obs.C("runner.shards_failed").Value()}
}

// since returns the shards run and failed after the mark was taken.
func (m shardMark) since() (ops, failed int) {
	now := markShards()
	return int(now.done - m.done), int(now.failed - m.failed)
}
