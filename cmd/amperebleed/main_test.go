package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// cliArgsEnv, when set, makes the test binary run as amperebleed with
// the unit-separated arguments it holds, so tests can drive the real
// CLI in a child process.
const cliArgsEnv = "AMPEREBLEED_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(cliArgsEnv); ok {
		os.Args = []string{"amperebleed"}
		if args != "" {
			os.Args = append(os.Args, strings.Split(args, "\x1f")...)
		}
		main()
	}
	os.Exit(m.Run())
}

// runCLI runs the CLI with args in a child process and returns its
// stdout, stderr and exit code.
func runCLI(t *testing.T, args []string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+strings.Join(args, "\x1f"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return out.Bytes(), errOut.Bytes(), code
}

// amperebleed runs the CLI with args and returns its stdout, failing
// the test unless it exits 0.
func amperebleed(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, code := runCLI(t, args)
	if code != 0 {
		t.Fatalf("amperebleed %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return string(stdout)
}

// TestCheckpointedCharacterizeHonorsZeroIntensity: -fault-intensity 0
// disables fault injection on the checkpointed path exactly as on the
// direct one, so both render the fault-free Fig. 2.
func TestCheckpointedCharacterizeHonorsZeroIntensity(t *testing.T) {
	sweep := []string{"characterize", "-levels", "4", "-samples", "3", "-parallel", "2"}
	zero := append([]string{"-faults", "hostile", "-fault-intensity", "0"}, sweep...)
	clean := amperebleed(t, sweep...)
	if direct := amperebleed(t, zero...); direct != clean {
		t.Errorf("direct run at intensity 0 differs from a fault-free run:\n%s\nwant\n%s", direct, clean)
	}
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if supervised := amperebleed(t, append(zero, "-checkpoint", ckpt)...); supervised != clean {
		t.Errorf("checkpointed run at intensity 0 differs from a fault-free run:\n%s\nwant\n%s", supervised, clean)
	}
}
