package main

// The supervised-job side of the CLI: `characterize -checkpoint` runs
// through kindExecutor, and `resume` picks an interrupted run back up
// from its checkpoint file.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/jobs/kinds"
	"repro/internal/report"
	"repro/internal/runner"
)

// kindExecutor runs one supervised job through the kind registry: plan
// the shard keys, run them under jobs.Run, fold the outcome back into
// the experiment's result type.
func kindExecutor(ctx context.Context, spec jobs.Spec) (*jobs.Outcome, any, error) {
	kind, err := kinds.Lookup(spec.Kind)
	if err != nil {
		return nil, nil, err
	}
	keys, err := kind.Plan(spec)
	if err != nil {
		return nil, nil, err
	}
	out, err := jobs.Run(ctx, spec, keys, func(ctx context.Context, info runner.Info) (json.RawMessage, error) {
		return kind.Shard(ctx, spec, info)
	})
	if err != nil {
		return out, nil, err
	}
	agg, err := kind.Aggregate(spec, out)
	return out, agg, err
}

// cmdResume restarts a supervised run from its checkpoint file. The
// job's identity (kind, seed, board, fault profile, config) comes from
// the checkpoint itself; completed shards replay from the file and only
// the remainder executes, so the final result is byte-identical to an
// uninterrupted run.
func cmdResume(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	workers := fs.Int("parallel", 0, "workers for the remaining shards (0 = GOMAXPROCS; results are identical for any worker count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := (runFlags{Parallel: *workers}).validate(); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError{errors.New("usage: amperebleed resume [-parallel N] <checkpoint-file>")}
	}
	path := fs.Arg(0)
	cp, err := jobs.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	spec := jobs.Spec{
		Kind:           cp.Kind,
		RunID:          fmt.Sprintf("resume-%d-%d", os.Getpid(), time.Now().Unix()),
		Seed:           cp.Seed,
		Board:          cp.Board,
		FaultProfile:   cp.FaultProfile,
		FaultIntensity: cp.FaultIntensity,
		Config:         cp.Config,
		Workers:        *workers,
		CheckpointPath: path,
	}
	noteRun(cp.Seed, *workers)
	noteResumedSpec(cp.Kind, cp.FaultProfile, cp.FaultIntensity)
	done := len(cp.Completed) + len(cp.Quarantined)
	fmt.Fprintf(os.Stderr, "resume: %s run %s at %d/%d shards (%d quarantined)\n",
		cp.Kind, cp.RunID, done, len(cp.Keys), len(cp.Quarantined))

	out, agg, err := kindExecutor(ctx, spec)
	if out != nil {
		noteLineage(spec.RunID, out.ParentRunID, out.ResumedShards)
	}
	if err != nil {
		return err
	}
	for key, reason := range out.Quarantined {
		fmt.Fprintf(os.Stderr, "resume: shard %s quarantined: %s\n", key, reason)
	}
	return renderAggregate(agg)
}

// renderAggregate routes a kind's aggregate to the experiment's usual
// report renderer.
func renderAggregate(agg any) error {
	switch v := agg.(type) {
	case *core.CharacterizeResult:
		return report.RenderFig2(os.Stdout, v)
	case []core.BoardApplicability:
		return report.RenderApplicability(os.Stdout, v)
	default:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}
