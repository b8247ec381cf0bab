package main

import (
	"bytes"
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
		os.Args = append([]string{"amperebleed"}, strings.Split(args, "\x1f")...)
		main()
	}
	os.Exit(m.Run())
}

// amperebleed runs the CLI with args and returns its stdout.
func amperebleed(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("amperebleed %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
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
