package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI transcripts under testdata/transcripts")

// transcripts are black-box CLI cases: each runs the real binary in a
// child process and compares its stdout, stderr and exit code byte for
// byte against testdata/transcripts/<name>.txt. Run `go test -update`
// to record them afresh.
var transcripts = []struct {
	name string
	args []string
}{
	{"boards", []string{"boards"}},
	{"zoo", []string{"zoo"}},
	{"characterize", []string{"characterize", "-levels", "4", "-samples", "3"}},
	{"rsa", []string{"rsa", "-samples", "10"}},
	{"covert_hostile", []string{"-faults", "hostile", "covert", "-bits", "16"}},
	{"leakage", []string{"leakage"}},
	{"detect", []string{"detect"}},
	{"applicability", []string{"applicability"}},

	// Usage errors.
	{"no_command", nil},
	{"unknown_command", []string{"frobnicate"}},
	{"serve", []string{"serve", "-checkpoint-dir", "", "-max-jobs", "-1"}},
	{"bad_flag", []string{"characterize", "-no-such-flag"}},
	{"intensity_negative", []string{"-fault-intensity", "-0.5", "boards"}},
	{"intensity_nan", []string{"-fault-intensity", "NaN", "boards"}},
	{"intensity_inf", []string{"-fault-intensity", "+Inf", "boards"}},
	{"obs_hold_negative", []string{"-obs-hold", "-1s", "boards"}},
	{"history_interval_zero", []string{"-history", "-history-interval", "0", "boards"}},
	{"parallel_negative_characterize", []string{"characterize", "-parallel", "-1"}},
	{"parallel_negative_fingerprint", []string{"fingerprint", "-parallel", "-1"}},
	{"parallel_negative_applicability", []string{"applicability", "-parallel", "-1"}},
	{"parallel_negative_robustness", []string{"robustness", "-parallel", "-1"}},
	{"parallel_negative_covert", []string{"covert", "-parallel", "-1"}},
	{"parallel_negative_resume", []string{"resume", "-parallel", "-1", "x.ckpt"}},
	{"resume_no_checkpoint", []string{"resume"}},
}

func TestTranscripts(t *testing.T) {
	for _, tc := range transcripts {
		t.Run(tc.name, func(t *testing.T) {
			got := transcript(t, tc.args)
			path := filepath.Join("testdata", "transcripts", tc.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test -update to record it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("transcript differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}

// transcript renders the command line, exit code, stdout and stderr of
// one CLI run as one document.
func transcript(t *testing.T, args []string) []byte {
	t.Helper()
	stdout, stderr, code := runCLI(t, args)
	return fmt.Appendf(nil, "$ amperebleed %s\nexit %d\n--- stdout\n%s--- stderr\n%s", strings.Join(args, " "), code, stdout, stderr)
}
