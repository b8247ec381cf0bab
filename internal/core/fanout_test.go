package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestFanOutStopsAfterFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	err := fanOut(context.Background(), 100, 1, func(ctx context.Context, i int) error {
		calls.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// One worker: calls 0..3 ran, and call 3 recorded its error before
	// releasing the worker slot, so nothing launched after it.
	if n := calls.Load(); n != 4 {
		t.Fatalf("%d calls after an error at index 3 on one worker, want 4", n)
	}
}

func TestFanOutCancelsCallsInFlight(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	err := fanOut(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 0 {
			<-started
			return boom
		}
		close(started)
		<-ctx.Done() // returns only because the sibling's error cancels ctx
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the first error %v, not the cancellation it caused", err, boom)
	}
}

func TestFanOutHonorsParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	err := fanOut(ctx, 8, 2, func(context.Context, int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d calls launched under a cancelled ctx, want 0", n)
	}
}

func TestVictimExperimentsRejectNegativeParallelism(t *testing.T) {
	if _, err := AssessRSALeakage(LeakageConfig{Parallelism: -1}); err == nil {
		t.Error("AssessRSALeakage accepted Parallelism -1")
	}
	if _, err := RSAHammingWeight(RSAConfig{Parallelism: -1}); err == nil {
		t.Error("RSAHammingWeight accepted Parallelism -1")
	}
}

func TestFanOutReportsLowestIndexError(t *testing.T) {
	first, second := errors.New("index 1"), errors.New("index 2")
	failed := make(chan struct{})
	err := fanOut(context.Background(), 3, 3, func(ctx context.Context, i int) error {
		switch i {
		case 1:
			<-failed // fails only after index 2 has
			return first
		case 2:
			close(failed)
			return second
		}
		return nil
	})
	if !errors.Is(err, first) {
		t.Fatalf("err = %v, want the lowest-index error %v", err, first)
	}
}
