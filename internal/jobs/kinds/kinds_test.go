package kinds_test

// The adapters' contract: a supervised run of an experiment computes
// exactly what the direct path computes — same shard keys, same
// derived seeds, same numbers after the JSON round-trip through the
// checkpoint format.

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/jobs/kinds"
	"repro/internal/runner"
)

func runKind(t *testing.T, spec jobs.Spec) any {
	t.Helper()
	kind, err := kinds.Lookup(spec.Kind)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := kind.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := jobs.Run(context.Background(), spec, keys, func(ctx context.Context, info runner.Info) (json.RawMessage, error) {
		return kind.Shard(ctx, spec, info)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Quarantined) != 0 {
		t.Fatalf("unexpected quarantines: %v", out.Quarantined)
	}
	agg, err := kind.Aggregate(spec, out)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestCharacterizeKindMatchesDirectPath(t *testing.T) {
	spec := jobs.Spec{
		Kind:         "characterize",
		Seed:         11,
		Board:        "zcu102",
		Workers:      2,
		RoundSize:    3,
		RetryBackoff: -1,
		Config:       json.RawMessage(`{"levels":5,"samples_per_level":4}`),
	}
	got := runKind(t, spec).(*core.CharacterizeResult)

	want, err := core.Characterize(core.CharacterizeConfig{
		Seed:            11,
		Levels:          5,
		SamplesPerLevel: 4,
		Parallelism:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("supervised characterize differs from direct path:\n got %+v\nwant %+v", got, want)
	}
}

func TestApplicabilityKindMatchesDirectPath(t *testing.T) {
	spec := jobs.Spec{
		Kind:         "applicability",
		Seed:         11,
		Board:        "all",
		Workers:      2,
		RoundSize:    4,
		RetryBackoff: -1,
		Config:       json.RawMessage(`{"levels":3,"samples_per_level":2}`),
	}
	got := runKind(t, spec).([]core.BoardApplicability)

	want, err := core.Applicability(core.ApplicabilityConfig{
		Seed:            11,
		Levels:          3,
		SamplesPerLevel: 2,
		Parallelism:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("supervised applicability differs from direct path:\n got %+v\nwant %+v", got, want)
	}
}

func TestLookupUnknownKind(t *testing.T) {
	_, err := kinds.Lookup("frobnicate")
	if err == nil || !strings.Contains(err.Error(), "characterize") {
		t.Errorf("unknown-kind error should list the registry: %v", err)
	}
	names := kinds.Names()
	if len(names) < 2 || names[0] != "applicability" {
		t.Errorf("Names() = %v, want sorted registry with applicability first", names)
	}
}

func TestCharacterizeKindRejectsBadConfig(t *testing.T) {
	kind, err := kinds.Lookup("characterize")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kind.Plan(jobs.Spec{Kind: "characterize", Config: json.RawMessage(`{"levels":`)}); err == nil {
		t.Error("truncated config accepted")
	}
	if _, err := kind.Plan(jobs.Spec{Kind: "characterize", FaultProfile: "no-such-profile"}); err == nil {
		t.Error("unknown fault profile accepted")
	}
	if _, err := kind.Plan(jobs.Spec{Kind: "characterize", Config: json.RawMessage(`{"levels":1}`)}); err == nil {
		t.Error("single-level sweep accepted")
	}
}

func TestPlanKeysMatchCoreShards(t *testing.T) {
	cases := []struct {
		name   string
		kind   string
		config string
		direct func() ([]string, error)
	}{
		{"characterize/levels:5", "characterize", `{"levels":5,"samples_per_level":4}`, func() ([]string, error) {
			return shardKeys(core.CharacterizeShards(core.CharacterizeConfig{Seed: 11, Levels: 5, SamplesPerLevel: 4}))
		}},
		{"characterize/default", "characterize", `{}`, func() ([]string, error) {
			return shardKeys(core.CharacterizeShards(core.CharacterizeConfig{Seed: 11}))
		}},
		{"applicability/levels:5", "applicability", `{"levels":5}`, func() ([]string, error) {
			return shardKeys(core.ApplicabilityShards(core.ApplicabilityConfig{Seed: 11, Levels: 5}))
		}},
		{"applicability/default", "applicability", `{}`, func() ([]string, error) {
			return shardKeys(core.ApplicabilityShards(core.ApplicabilityConfig{Seed: 11}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind, err := kinds.Lookup(tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			got, err := kind.Plan(jobs.Spec{Kind: tc.kind, Seed: 11, Config: json.RawMessage(tc.config)})
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.direct()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Plan keys %v, direct shard keys %v", got, want)
			}
		})
	}
	// The default sweep is the paper's 161 levels, keyed by level.
	kind, _ := kinds.Lookup("characterize")
	keys, err := kind.Plan(jobs.Spec{Kind: "characterize", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != core.DefaultCharacterizeLevels || keys[0] != "characterize/level/0" || keys[160] != "characterize/level/160" {
		t.Errorf("default characterize plan = %d keys %q..%q", len(keys), keys[0], keys[len(keys)-1])
	}
}

func shardKeys[T any](shards []runner.Shard[T], err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(shards))
	for i, s := range shards {
		keys[i] = s.Key
	}
	return keys, nil
}

func TestShardRejectsKeyOutsidePlan(t *testing.T) {
	cases := []struct {
		kind, config, key string
	}{
		{"characterize", `{"levels":5,"samples_per_level":2}`, "characterize/level/5"},
		{"characterize", `{"levels":5,"samples_per_level":2}`, "applicability/ZCU102"},
		{"applicability", `{"levels":3,"samples_per_level":2}`, "applicability/no-such-board"},
		{"applicability", `{"levels":3,"samples_per_level":2}`, "characterize/level/0"},
	}
	for _, tc := range cases {
		t.Run(tc.kind+"/"+tc.key, func(t *testing.T) {
			kind, err := kinds.Lookup(tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			spec := jobs.Spec{Kind: tc.kind, Seed: 3, Config: json.RawMessage(tc.config)}
			info := runner.Info{Key: tc.key, Seed: runner.ShardSeed(spec.Seed, tc.key)}
			if rec, err := kind.Shard(context.Background(), spec, info); err == nil {
				t.Fatalf("Shard(%q) = %s, want an error", tc.key, rec)
			}
		})
	}
}

// TestSpecIntensityZeroMeansOne pins the wire format: a spec naming a
// fault profile with no intensity runs the profile as defined, not a
// disabled one.
func TestSpecIntensityZeroMeansOne(t *testing.T) {
	kind, err := kinds.Lookup("characterize")
	if err != nil {
		t.Fatal(err)
	}
	shard := func(profile string, intensity float64) string {
		t.Helper()
		spec := jobs.Spec{
			Kind:           "characterize",
			Seed:           5,
			FaultProfile:   profile,
			FaultIntensity: intensity,
			Config:         json.RawMessage(`{"levels":3,"samples_per_level":20}`),
		}
		key := core.CharacterizeLevelKey(2)
		rec, err := kind.Shard(context.Background(), spec, runner.Info{Key: key, Seed: runner.ShardSeed(spec.Seed, key)})
		if err != nil {
			t.Fatal(err)
		}
		return string(rec)
	}
	unset, one, clean := shard("hostile", 0), shard("hostile", 1), shard("", 0)
	if unset != one {
		t.Error("intensity 0 on the wire did not run the profile at intensity 1")
	}
	if unset == clean {
		t.Error("hostile profile measured the same as no faults")
	}
}
