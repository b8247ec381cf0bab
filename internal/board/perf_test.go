package board

import (
	"testing"
	"time"

	"repro/internal/sysfs"
	"repro/internal/trace"
)

// newSteadyBoard builds a ZCU102 and runs it past the initial latch
// transient so subsequent ticks exercise only the steady-state path.
func newSteadyBoard(t testing.TB) *SoC {
	t.Helper()
	b, err := NewZCU102(Config{Seed: 1})
	if err != nil {
		t.Fatalf("NewZCU102: %v", err)
	}
	b.Run(time.Second)
	return b
}

// TestTickSteadyStateZeroAllocs pins the tentpole allocation contract:
// once warmed up, the full board tick loop — rails, regulators, all 18
// INA226 conversions and their latches — performs zero heap allocations
// per tick. A regression here multiplies across the millions of ticks a
// fingerprinting campaign simulates.
func TestTickSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := newSteadyBoard(t)
	eng := b.Engine()
	allocs := testing.AllocsPerRun(500, func() { eng.Tick() })
	if allocs != 0 {
		t.Fatalf("steady-state tick allocated %v objects/op, want 0", allocs)
	}
}

// TestSamplingSteadyStateZeroAllocs extends the contract through the
// attacker's read path: a recorder polling curr1_input through sysfs
// (fast-path resolve, cached hwmon rendering, reserved trace capacity)
// must not allocate per tick either.
func TestSamplingSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := newSteadyBoard(t)
	probe := trace.SysfsProbe(b.Sysfs(), sysfs.Nobody, "class/hwmon/hwmon0/curr1_input", 1e-3)
	rec, err := trace.NewRecorder(35*time.Millisecond, probe)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	rec.Reserve(100000)
	b.Engine().MustRegister("recorder/alloc-test", rec)
	b.Run(time.Second) // warm the attribute render caches
	eng := b.Engine()
	allocs := testing.AllocsPerRun(500, func() { eng.Tick() })
	if allocs != 0 {
		t.Fatalf("steady-state sampling tick allocated %v objects/op, want 0", allocs)
	}
	if tr, err := rec.Trace(); err != nil || len(tr.Samples) == 0 {
		t.Fatalf("recorder captured %d samples, err %v — sampling path never ran", len(tr.Samples), err)
	}
}

// BenchmarkTick measures the steady-state cost of one simulation tick
// on a full ZCU102 (18 sensors); allocs/op must report 0.
func BenchmarkTick(b *testing.B) {
	soc := newSteadyBoard(b)
	eng := soc.Engine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tick()
	}
}

// BenchmarkNewZCU102 measures wiring one ZCU102: every experiment
// session and capture builds a fresh board.
func BenchmarkNewZCU102(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewZCU102(Config{Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}
