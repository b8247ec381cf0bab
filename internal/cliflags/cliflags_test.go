package cliflags

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/ledger"
	"repro/internal/obs/olog"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

func start(t *testing.T, f *Flags, intensity float64) (*Session, error) {
	t.Helper()
	s, err := f.Start("test", intensity)
	t.Cleanup(olog.Disable)
	return s, err
}

func TestDefaults(t *testing.T) {
	f := parse(t)
	want := Flags{Faults: "none", LogLevel: "warn", LogFormat: "text"}
	if *f != want {
		t.Errorf("defaults = %+v, want %+v", *f, want)
	}
}

func TestStartRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-log-level", "loud"}, "loud"},
		{[]string{"-log-format", "xml"}, "xml"},
		{[]string{"-faults", "no-such-profile"}, "unknown profile"},
	}
	for _, tc := range cases {
		_, err := start(t, parse(t, tc.args...), 1)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Start with %v = %v, want error containing %q", tc.args, err, tc.wantErr)
		}
	}
}

func TestFaultSpec(t *testing.T) {
	cases := []struct {
		faults        string
		intensity     float64
		wantName      string
		wantIntensity float64
	}{
		{"none", 1, "", 0},
		{"hostile", 0, "", 0},
		{"hostile", 0.5, "hostile", 0.5},
	}
	for _, tc := range cases {
		s, err := start(t, parse(t, "-faults", tc.faults), tc.intensity)
		if err != nil {
			t.Fatal(err)
		}
		name, intensity := s.FaultSpec()
		if name != tc.wantName || intensity != tc.wantIntensity || (s.Profile == nil) != (name == "") {
			t.Errorf("%s at %v: FaultSpec() = %q, %v (profile %v), want %q, %v",
				tc.faults, tc.intensity, name, intensity, s.Profile, tc.wantName, tc.wantIntensity)
		}
	}
}

func TestFinishWritesTraceAndLedger(t *testing.T) {
	dir := t.TempDir()
	tracePath, ledgerPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "runs.jsonl")
	s, err := start(t, parse(t, "-faults", "flaky-sysfs", "-trace-out", tracePath, "-ledger", ledgerPath), 2)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.Finish(&out, &ledger.RunInfo{Tool: "test", Command: "run", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace timeline written to "+tracePath) ||
		!strings.Contains(out.String(), "run manifest appended to "+ledgerPath) {
		t.Errorf("Finish reported %q", out.String())
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Error(err)
	}
	// A nil RunInfo skips the ledger.
	if err := s.Finish(&out, nil); err != nil {
		t.Fatal(err)
	}
	ms, err := ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("ledger holds %d manifests, want 1", len(ms))
	}
	if m := ms[0]; m.FaultProfile != "flaky-sysfs" || m.FaultIntensity != 2 || m.Seed != 7 {
		t.Errorf("manifest = %+v, want the session's fault profile at intensity 2", m)
	}
}
