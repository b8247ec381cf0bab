// Package kinds names the experiment types the supervised job engine
// can run. A Kind adapts one core experiment to the engine's shard
// protocol: Plan expands a job spec into the deterministic shard key
// list, Shard executes one key (its Info.Seed already derived by
// runner.ShardSeed exactly as the direct experiment paths derive it),
// and Aggregate folds the completed shard records back into the
// experiment's result type. Plan and Shard read the experiment's shard
// list from core — the same list the direct path runs — so a supervised
// run measures bit-identical values to a one-shot run of the same seed.
package kinds

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/jobs"
	"repro/internal/runner"
)

// Kind is one experiment type the job engine can supervise.
type Kind struct {
	// Name is the registry key and the checkpoint's Kind field.
	Name string
	// Plan expands the spec into the shard key list, in submission
	// order. It must be a pure function of the spec.
	Plan func(spec jobs.Spec) ([]string, error)
	// Shard runs one shard; info.Seed is runner.ShardSeed(spec.Seed,
	// key). The returned JSON must be byte-stable for a given seed —
	// resumed runs replay these bytes instead of recomputing.
	Shard func(ctx context.Context, spec jobs.Spec, info runner.Info) (json.RawMessage, error)
	// Aggregate folds a completed outcome into the experiment result.
	// Quarantined shards are absent from the results map; aggregators
	// degrade (fit what survived) or fail with a clear error.
	Aggregate func(spec jobs.Spec, out *jobs.Outcome) (any, error)
}

var registry = map[string]Kind{
	"characterize":  sharded("characterize", characterizeShards, fitCharacterize),
	"applicability": sharded("applicability", applicabilityShards, surveyRows),
}

// Lookup returns a registered kind.
func Lookup(name string) (Kind, error) {
	k, ok := registry[name]
	if !ok {
		return Kind{}, fmt.Errorf("kinds: unknown job kind %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return k, nil
}

// Names lists the registered kinds, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sharded adapts an experiment's core shard list to a Kind: Plan is the
// list's keys, Shard runs the entry with the requested key, and
// Aggregate decodes the surviving shard records, in plan order, for
// reduce.
func sharded[T any](name string, shards func(jobs.Spec) ([]runner.Shard[T], error), reduce func([]T) (any, error)) Kind {
	return Kind{
		Name: name,
		Plan: func(spec jobs.Spec) ([]string, error) {
			list, err := shards(spec)
			if err != nil {
				return nil, err
			}
			keys := make([]string, len(list))
			for i, s := range list {
				keys[i] = s.Key
			}
			return keys, nil
		},
		Shard: func(ctx context.Context, spec jobs.Spec, info runner.Info) (json.RawMessage, error) {
			list, err := shards(spec)
			if err != nil {
				return nil, err
			}
			for _, s := range list {
				if s.Key == info.Key {
					v, err := s.Run(ctx, info)
					if err != nil {
						return nil, err
					}
					return json.Marshal(v)
				}
			}
			return nil, fmt.Errorf("kinds: %s has no shard %q", name, info.Key)
		},
		Aggregate: func(spec jobs.Spec, out *jobs.Outcome) (any, error) {
			values := make([]T, 0, len(out.Results))
			for _, key := range out.Keys {
				data, ok := out.Results[key]
				if !ok {
					continue // quarantined shard: reduce what survived
				}
				var v T
				if err := json.Unmarshal(data, &v); err != nil {
					return nil, fmt.Errorf("kinds: shard %s record: %w", key, err)
				}
				values = append(values, v)
			}
			return reduce(values)
		},
	}
}

// specFaults builds the fault profile a spec describes, or nil for
// none. On the wire an unset intensity means the profile as defined.
func specFaults(spec jobs.Spec) (*faults.Profile, error) {
	if spec.FaultProfile == "" {
		return nil, nil
	}
	intensity := spec.FaultIntensity
	if intensity == 0 {
		intensity = 1
	}
	return faults.Resolve(spec.FaultProfile, intensity)
}

// decodeConfig unmarshals spec.Config, when present, into dst.
func decodeConfig(spec jobs.Spec, dst any) error {
	if len(spec.Config) == 0 {
		return nil
	}
	if err := json.Unmarshal(spec.Config, dst); err != nil {
		return fmt.Errorf("kinds: %s config: %w", spec.Kind, err)
	}
	return nil
}

// ---- characterize ----

// CharacterizeJobConfig is the spec.Config payload of a characterize
// job: the subset of core.CharacterizeConfig that isn't already spec
// identity (seed, faults) or execution detail (parallelism).
type CharacterizeJobConfig struct {
	Levels            int  `json:"levels,omitempty"`
	SamplesPerLevel   int  `json:"samples_per_level,omitempty"`
	WarmupUpdates     int  `json:"warmup_updates,omitempty"`
	DisableStabilizer bool `json:"disable_stabilizer,omitempty"`
}

func characterizeShards(spec jobs.Spec) ([]runner.Shard[core.LevelReading], error) {
	var jc CharacterizeJobConfig
	if err := decodeConfig(spec, &jc); err != nil {
		return nil, err
	}
	fp, err := specFaults(spec)
	if err != nil {
		return nil, err
	}
	return core.CharacterizeShards(core.CharacterizeConfig{
		Seed:              spec.Seed,
		Levels:            jc.Levels,
		SamplesPerLevel:   jc.SamplesPerLevel,
		WarmupUpdates:     jc.WarmupUpdates,
		DisableStabilizer: jc.DisableStabilizer,
		Faults:            fp,
	})
}

func fitCharacterize(readings []core.LevelReading) (any, error) {
	return core.FitCharacterize(readings)
}

// ---- applicability ----

// ApplicabilityJobConfig is the spec.Config payload of an
// applicability job.
type ApplicabilityJobConfig struct {
	Levels          int `json:"levels,omitempty"`
	SamplesPerLevel int `json:"samples_per_level,omitempty"`
}

func applicabilityShards(spec jobs.Spec) ([]runner.Shard[core.BoardApplicability], error) {
	var jc ApplicabilityJobConfig
	if err := decodeConfig(spec, &jc); err != nil {
		return nil, err
	}
	fp, err := specFaults(spec)
	if err != nil {
		return nil, err
	}
	return core.ApplicabilityShards(core.ApplicabilityConfig{
		Seed:            spec.Seed,
		Levels:          jc.Levels,
		SamplesPerLevel: jc.SamplesPerLevel,
		Faults:          fp,
	})
}

func surveyRows(rows []core.BoardApplicability) (any, error) {
	if len(rows) == 0 {
		return nil, errors.New("kinds: every applicability board quarantined")
	}
	return rows, nil
}
