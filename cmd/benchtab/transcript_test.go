package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliArgsEnv, when set, makes the test binary run as benchtab with the
// unit-separated arguments it holds, so tests can drive the real CLI in
// a child process.
const cliArgsEnv = "BENCHTAB_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(cliArgsEnv); ok {
		os.Args = []string{"benchtab"}
		if args != "" {
			os.Args = append(os.Args, strings.Split(args, "\x1f")...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite the CLI transcripts under testdata/transcripts")

// transcripts are black-box CLI cases: each runs the real binary in a
// child process and compares its stdout, stderr and exit code byte for
// byte against testdata/transcripts/<name>.txt. Run `go test -update`
// to record them afresh.
var transcripts = []struct {
	name string
	args []string
}{
	{"table1", []string{"-exp", "table1"}},
	{"fig4", []string{"-exp", "fig4"}},
	{"mitigation", []string{"-exp", "mitigation"}},

	// Usage errors.
	{"unknown_experiment", []string{"-exp", "fig9"}},
	{"repeat_zero", []string{"-exp", "table1", "-repeat", "0"}},
	{"compare_without_baseline", []string{"-exp", "table1", "-compare"}},
	{"parallel_negative", []string{"-exp", "all", "-parallel", "-1"}},
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

// transcript runs the CLI with args in a child process and renders the
// command line, exit code, stdout and stderr as one document.
func transcript(t *testing.T, args []string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+strings.Join(args, "\x1f"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return fmt.Appendf(nil, "$ benchtab %s\nexit %d\n--- stdout\n%s--- stderr\n%s", strings.Join(args, " "), code, stdout.Bytes(), stderr.Bytes())
}
