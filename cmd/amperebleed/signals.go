package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// interruptExitCode is the conventional 128+SIGINT status reported when
// a second signal aborts the shutdown grace period.
const interruptExitCode = 130

// notifyInterrupts subscribes a channel to SIGINT/SIGTERM and returns
// it with its unsubscribe function. Split from watchSignals so tests
// can drive the watcher with a fake channel.
func notifyInterrupts() (chan os.Signal, func()) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch, func() { signal.Stop(ch) }
}

// watchSignals implements the CLI's two-stage shutdown: the first
// signal on ch cancels the returned context so the running command can
// wind down and the tail of main still flushes the ledger, trace and
// checkpoints; a second signal gives up on graceful shutdown and calls
// exit. The returned stop function detaches the watcher (idempotent,
// safe to defer).
func watchSignals(parent context.Context, ch <-chan os.Signal, exit func(int)) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(os.Stderr, "amperebleed: %v: shutting down (again to abort)\n", sig)
			cancel()
		case <-ctx.Done():
			return
		}
		select {
		case sig := <-ch:
			fmt.Fprintf(os.Stderr, "amperebleed: %v: aborted\n", sig)
			exit(interruptExitCode)
		case <-parent.Done():
		}
	}()
	return ctx, cancel
}

// hold waits for d, or until ctx is done: the first SIGINT/SIGTERM ends
// an -obs-hold as it ends a running command.
func hold(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
