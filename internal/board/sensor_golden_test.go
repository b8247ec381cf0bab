package board_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/ina226"
	"repro/internal/sim"
)

// sensorReadRounds is the stagger schedule of the all-sensor golden:
// each round runs the board for the given time, then reads every third
// sensor (rotating with the round), so some sensors go unread for
// several update intervals and others are read twice within one.
var sensorReadRounds = []time.Duration{
	3 * time.Millisecond, 7500 * time.Microsecond, 35 * time.Millisecond,
	41 * time.Millisecond, 500 * time.Microsecond, 100 * time.Millisecond,
	2 * time.Millisecond, 70 * time.Millisecond, 12 * time.Millisecond,
	36 * time.Millisecond, 250 * time.Millisecond, 1 * time.Millisecond,
}

// sensorIntervalRound is the round after which every sensor's update
// interval changes (2 ms on even hwmon indices, 17 ms on odd ones).
const sensorIntervalRound = 6

func formatReading(r ina226.Readings) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("%s %s %s %d", f(r.CurrentAmps), f(r.BusVolts), f(r.PowerWatts), r.Updates)
}

// sensorReadTrace drives one catalog board under one fault preset
// through the stagger schedule and returns every Read() it made, one
// line per read, then a final read of every sensor.
func sensorReadTrace(t *testing.T, spec board.Spec, preset string) []string {
	t.Helper()
	prof, err := faults.Resolve(preset, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := board.Wire(spec, board.Config{Seed: goldenSeed, Faults: prof})
	if err != nil {
		t.Fatalf("wire %s: %v", spec.Name, err)
	}
	entries := b.Hwmon().Entries()
	var lines []string
	read := func(round int, e int) {
		dev := entries[e].Device
		lines = append(lines, fmt.Sprintf("%d %s %s %d %d", round, dev.Label(),
			formatReading(dev.Read()), dev.RegShunt(), dev.RegBus()))
	}
	for r, d := range sensorReadRounds {
		b.Run(d)
		for i := range entries {
			if (i+r)%3 == 0 {
				read(r, i)
			}
		}
		if r == sensorIntervalRound {
			for i, e := range entries {
				iv := 17 * time.Millisecond
				if i%2 == 0 {
					iv = ina226.MinUpdateInterval
				}
				if err := e.Device.SetUpdateInterval(iv); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := range entries {
		read(len(sensorReadRounds), i)
	}
	// Once every sensor is read, each has drawn exactly what eager
	// ticks would have: pin the next draw of its noise and probe streams.
	// (A sensitive sensor's probe reads a rail, so its misc/ column is a
	// fresh stream's first draw.)
	eng := b.Engine()
	for _, e := range entries {
		lines = append(lines, fmt.Sprintf("streams %s %d %d", e.Label,
			eng.Stream("ina226/"+e.Label).Int63(), eng.Stream("misc/"+e.Label).Int63()))
	}
	return lines
}

// sensorGoldenPresets are the fault presets of the all-sensor golden:
// fault-free, sysfs faults only (the sensors get zero latch hooks), and
// hostile (every sensor gets stale-latch and bit-flip hooks).
var sensorGoldenPresets = []string{"none", "flaky-sysfs", "hostile"}

// TestGoldenSensorReads locks every sensor's Read() on every catalog
// board under sensorGoldenPresets, at staggered read times and across an
// update-interval change, against testdata/golden/sensor_reads.txt.
// Unread bias-rail sensors replay their pending conversions only when
// read, so this golden pins the replay to the eager tick-by-tick result.
// Regenerate with: go test ./internal/board -run GoldenSensorReads -update
func TestGoldenSensorReads(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# golden sensor reads: every catalog board x presets none, flaky-sysfs, hostile; seed ")
	sb.WriteString(strconv.Itoa(goldenSeed))
	sb.WriteString("\n# columns: board preset round label amps volts watts updates shunt_reg bus_reg,\n# then per sensor: board preset streams label next_noise_draw next_probe_draw\n")
	for _, spec := range board.Catalog() {
		for _, preset := range sensorGoldenPresets {
			for _, ln := range sensorReadTrace(t, spec, preset) {
				fmt.Fprintf(&sb, "%s %s %s\n", spec.Name, preset, ln)
			}
		}
	}
	content := sb.String()
	path := filepath.Join("testdata", "golden", "sensor_reads.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if string(want) == content {
		return
	}
	got, exp := strings.Split(content, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Fatalf("%s: first difference at line %d\n got: %s\nwant: %s", path, i+1, got[i], exp[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(got), len(exp))
}

// TestUnreadMiscSensorsDrawNothing pins observe-on-read: a bias-rail
// sensor nobody reads must not have advanced its probe's noise stream
// after a second of simulation, while its update counter still
// advanced on schedule.
func TestUnreadMiscSensorsDrawNothing(t *testing.T) {
	b, err := board.NewZCU102(board.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Run(time.Second)
	const stream = "misc/ina226_u78"
	got := b.Engine().Stream(stream).Int63()
	want := sim.MustNewEngine(board.DefaultStep, 1).Stream(stream).Int63()
	if got != want {
		t.Fatalf("%s advanced while unread: next draw %d, fresh stream's first %d", stream, got, want)
	}
	dev, err := b.Sensor("ina226_u78")
	if err != nil {
		t.Fatal(err)
	}
	if n, want := dev.Updates(), uint64(time.Second/ina226.DefaultUpdateInterval); n != want {
		t.Fatalf("unread sensor latched %d times in 1 s, want %d", n, want)
	}
}
