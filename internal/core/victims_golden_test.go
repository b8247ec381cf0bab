package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// victimsGolden pins the RSA-victim experiments bit for bit at reduced
// budgets: the TVLA t-statistic and SNR of both victims, and the Fig. 4
// group counts, correlations and per-key medians. Floats are written as
// IEEE-754 bit patterns, so any change to a session's seed, its sample
// order or the arithmetic over it shows up as a diff.
const victimsGolden = "testdata/victims.txt"

// writeBits appends one float as its bit pattern and its %g rendering
// (the latter only for the reader).
func writeBits(buf *bytes.Buffer, name string, v float64) {
	fmt.Fprintf(buf, "%s %016x %g\n", name, math.Float64bits(v), v)
}

func victimsRecord(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ladder := range []bool{false, true} {
		res, err := AssessRSALeakage(LeakageConfig{
			Seed:              7,
			SamplesPerSession: 60,
			RandomSessions:    2,
			Countermeasure:    ladder,
		})
		if err != nil {
			t.Fatalf("leakage ladder=%v: %v", ladder, err)
		}
		fmt.Fprintf(&buf, "tvla ladder=%v leaks=%v\n", ladder, res.TVLA.Leaks)
		writeBits(&buf, "  t", res.TVLA.T)
		writeBits(&buf, "  snr", res.SNR)
	}
	rsa, err := RSAHammingWeight(RSAConfig{
		Seed:    7,
		Weights: []int{1, 256, 512, 768, 1024},
		Samples: 200,
	})
	if err != nil {
		t.Fatalf("rsa: %v", err)
	}
	fmt.Fprintf(&buf, "rsa groups current=%d power=%d\n", rsa.CurrentGroups, rsa.PowerGroups)
	writeBits(&buf, "  pearson", rsa.CurrentPearson)
	writeBits(&buf, "  spearman", rsa.CurrentSpearman)
	for _, k := range rsa.Keys {
		fmt.Fprintf(&buf, "key hw=%d exps=%d\n", k.Weight, k.Exponentiations)
		writeBits(&buf, "  current.median", k.Current.Median)
		writeBits(&buf, "  power.median", k.Power.Median)
	}
	return buf.Bytes()
}

func TestVictimExperimentsGolden(t *testing.T) {
	got := victimsRecord(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(victimsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(victimsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(victimsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("victim experiments differ from %s:\n--- got\n%s--- want\n%s", victimsGolden, got, want)
	}
}
