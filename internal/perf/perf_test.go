package perf

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func sampleArtifact(ticks int64) Artifact {
	r := obs.NewRegistry()
	r.Counter("sim.ticks").Add(ticks)
	r.Counter("sim.simtime_ns").Add(2_000_000_000)
	r.Counter("sim.walltime_ns").Add(987654321) // wall-dependent: must not gate
	r.Counter("core.captures").Add(12)
	r.Histogram("attacker.sample_rate_hz").Observe(28.57)
	snap := r.Snapshot()
	a := Artifact{
		SchemaVersion: SchemaVersion,
		Experiment:    "all",
		Seed:          1,
		WallSeconds:   3.5,
		SimTicks:      ticks,
		TicksPerSec:   float64(ticks) / 3.5,
		SimWallRatio:  2.02,
		Parallel: &ParallelBench{
			Workers:             4,
			SerialTicksPerSec:   1000,
			ParallelTicksPerSec: 2500,
			Speedup:             2.5,
		},
		Obs: snap,
	}
	if h, ok := snap.Histogram("attacker.sample_rate_hz"); ok {
		a.SampleRate = h
	}
	return a
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()

	single := filepath.Join(dir, "single.json")
	if err := WriteFile(single, []Artifact{sampleArtifact(1000)}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SimTicks != 1000 {
		t.Fatalf("single round-trip: %+v", got)
	}

	multi := filepath.Join(dir, "multi.json")
	if err := WriteFile(multi, []Artifact{sampleArtifact(1000), sampleArtifact(1000)}); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadFile(multi); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("array round-trip: %d artifacts", len(got))
	}
}

func TestCompareCleanRun(t *testing.T) {
	cmp, err := Compare(
		[]Artifact{sampleArtifact(1000)},
		[]Artifact{sampleArtifact(1000)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Drift) != 0 {
		t.Fatalf("identical artifacts drifted: %+v", cmp.Drift)
	}
	if cmp.Failed() {
		t.Fatal("identical artifacts failed the gate")
	}
	if len(cmp.Rates) == 0 {
		t.Fatal("no rate rows reported")
	}
}

// The heart of the regression gate: a deterministic counter that moves
// by even one count is a behaviour change and must fail the comparison,
// no matter that every wall-clock rate is unchanged.
func TestCompareFailsOnDeterministicDrift(t *testing.T) {
	base := sampleArtifact(1000)
	drifted := sampleArtifact(1001) // one extra sim tick
	cmp, err := Compare([]Artifact{base}, []Artifact{drifted}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() {
		t.Fatal("deterministic counter drift did not fail the comparison")
	}
	found := false
	for _, d := range cmp.Drift {
		if d.Name == "sim.ticks" {
			found = true
		}
		if strings.Contains(d.Name, "walltime") {
			t.Fatalf("wall-clock counter %s gated as deterministic", d.Name)
		}
	}
	if !found {
		t.Fatalf("sim.ticks drift not reported: %+v", cmp.Drift)
	}
}

func TestCompareWallClockReportOnlyByDefault(t *testing.T) {
	base := sampleArtifact(1000)
	slow := sampleArtifact(1000)
	slow.TicksPerSec /= 10
	slow.WallSeconds *= 10
	cmp, err := Compare([]Artifact{base}, []Artifact{slow}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Failed() {
		t.Fatal("wall-clock slowdown failed a report-only comparison")
	}
	cmp, err = Compare([]Artifact{base}, []Artifact{slow}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Failed() {
		t.Fatal("10x slowdown passed a 20% regression gate")
	}
	for _, r := range cmp.Rates {
		switch r.Name {
		case "ticks_per_sec":
			if !r.Regressed {
				t.Fatal("ticks_per_sec drop not flagged")
			}
		case "wall_seconds":
			if !r.Regressed {
				t.Fatal("wall_seconds growth not flagged (lower is better)")
			}
		case "sim_wall_ratio":
			if r.Regressed {
				t.Fatal("unchanged sim_wall_ratio flagged")
			}
		}
	}
}

func TestCompareRejectsMismatchedRuns(t *testing.T) {
	a := sampleArtifact(1000)
	b := sampleArtifact(1000)
	b.Experiment = "fig2"
	if _, err := Compare([]Artifact{a}, []Artifact{b}, 0); err == nil {
		t.Fatal("experiment mismatch accepted")
	}
	b = sampleArtifact(1000)
	b.Seed = 99
	if _, err := Compare([]Artifact{a}, []Artifact{b}, 0); err == nil {
		t.Fatal("seed mismatch accepted")
	}
}

func TestCompareRejectsUnstableRepeats(t *testing.T) {
	if _, err := Compare(
		[]Artifact{sampleArtifact(1000)},
		[]Artifact{sampleArtifact(1000), sampleArtifact(1002)}, 0); err == nil {
		t.Fatal("non-reproducible repeats accepted")
	}
}

func TestStats(t *testing.T) {
	s := Stats([]float64{10, 12, 14})
	if s.N != 3 || s.Mean != 12 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.Stddev-2) > 1e-12 {
		t.Fatalf("stddev = %g, want 2", s.Stddev)
	}
	// t(df=2, 97.5%) = 4.303; CI = 4.303 * 2 / sqrt(3).
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("ci95 = %g, want %g", s.CI95, want)
	}
	if one := Stats([]float64{5}); one.N != 1 || one.Mean != 5 || one.Stddev != 0 || one.CI95 != 0 {
		t.Fatalf("single-value stats = %+v", one)
	}
}

// goldenSchema pins the artifact's top-level JSON layout: a field
// rename, removal, or addition must show up here and force a conscious
// SchemaVersion decision.
var goldenSchema = []string{
	"schema_version",
	"experiment",
	"seed",
	"wall_seconds",
	"sim_ticks",
	"ticks_per_sec",
	"sim_wall_ratio",
	"attacker_sample_rate_hz",
	"parallel",
	"spectrum",
	"obs",
}

func TestArtifactSchemaGolden(t *testing.T) {
	typ := reflect.TypeOf(Artifact{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		tag := typ.Field(i).Tag.Get("json")
		name := strings.Split(tag, ",")[0]
		if name == "" || name == "-" {
			t.Fatalf("field %s has no json name", typ.Field(i).Name)
		}
		fields = append(fields, name)
	}
	if !reflect.DeepEqual(fields, goldenSchema) {
		t.Fatalf("artifact schema changed:\n got  %v\n want %v\nbump SchemaVersion and update the golden list deliberately",
			fields, goldenSchema)
	}
	// The serialized form must carry the version.
	data, err := json.Marshal(sampleArtifact(10))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if v, ok := m["schema_version"].(float64); !ok || int(v) != SchemaVersion {
		t.Fatalf("schema_version = %v, want %d", m["schema_version"], SchemaVersion)
	}
}
