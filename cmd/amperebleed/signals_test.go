package main

import (
	"bufio"
	"context"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestWatchSignalsFirstSignalCancels(t *testing.T) {
	ch := make(chan os.Signal, 2)
	exited := make(chan int, 1)
	ctx, cancel := watchSignals(context.Background(), ch, func(code int) { exited <- code })
	defer cancel()

	select {
	case <-ctx.Done():
		t.Fatal("context cancelled before any signal")
	default:
	}
	ch <- syscall.SIGTERM
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("first signal did not cancel the run context")
	}
	select {
	case code := <-exited:
		t.Fatalf("first signal hard-exited with %d", code)
	default:
	}
}

func TestWatchSignalsSecondSignalHardExits(t *testing.T) {
	ch := make(chan os.Signal, 2)
	exited := make(chan int, 1)
	_, cancel := watchSignals(context.Background(), ch, func(code int) { exited <- code })
	defer cancel()

	ch <- syscall.SIGINT
	ch <- syscall.SIGINT
	select {
	case code := <-exited:
		if code != interruptExitCode {
			t.Errorf("exit code = %d, want %d", code, interruptExitCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not hard-exit")
	}
}

func TestWatchSignalsNormalExitStopsWatcher(t *testing.T) {
	ch := make(chan os.Signal, 2)
	exited := make(chan int, 1)
	ctx, cancel := watchSignals(context.Background(), ch, func(code int) { exited <- code })
	// The command finished without a signal: cancel detaches the
	// watcher, and a late signal must not hard-exit.
	cancel()
	<-ctx.Done()
	ch <- syscall.SIGINT
	select {
	case code := <-exited:
		t.Fatalf("signal after normal exit hard-exited with %d", code)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestObsHoldEndsOnSignal runs the CLI with a one-minute -obs-hold and
// sends SIGTERM once the hold starts: the process must exit promptly
// with the finished command's status, not sit out the hold.
func TestObsHoldEndsOnSignal(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), cliArgsEnv+"="+strings.Join(
		[]string{"-obs-addr", "127.0.0.1:0", "-obs-hold", "1m", "boards"}, "\x1f"))
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Never leave the child holding its port if the test fails early.
	killer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer killer.Stop()

	sc := bufio.NewScanner(stderr)
	holding := false
	for !holding && sc.Scan() {
		holding = strings.HasPrefix(sc.Text(), "obs: holding ")
	}
	if !holding {
		cmd.Wait()
		t.Fatal("CLI exited without starting the -obs-hold")
	}
	signalled := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, stderr)
	err = cmd.Wait()
	latency := time.Since(signalled)
	if err != nil {
		t.Fatalf("CLI exited with %v after SIGTERM during the hold, want status 0", err)
	}
	if latency > 5*time.Second {
		t.Fatalf("CLI took %v to exit after SIGTERM during a 1m hold, want under 5s", latency)
	}
}
