package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// pure adapts a context-free transformation to the Stage signature; most
// tests don't care about cancellation.
func pure[S any](f func(S) (S, error)) func(context.Context, S) (S, error) {
	return func(_ context.Context, s S) (S, error) { return f(s) }
}

func TestRunSingleState(t *testing.T) {
	p := New(
		Stage[int]{Name: "double", Run: pure(func(x int) (int, error) { return 2 * x, nil })},
		Stage[int]{Name: "inc", Run: pure(func(x int) (int, error) { return x + 1, nil })},
	)
	out, stats, err := p.Run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if out != 21 {
		t.Fatalf("out = %d; want 21", out)
	}
	if len(stats) != 2 || stats[0].Name != "double" || stats[1].Name != "inc" {
		t.Fatalf("stats = %+v", stats)
	}
}

// Run reports every stage's name and measured duration in stage order.
func TestRunReportsStagesInOrder(t *testing.T) {
	nap := func(d time.Duration) func(int) (int, error) {
		return func(x int) (int, error) { time.Sleep(d); return x, nil }
	}
	p := New(
		Stage[int]{Name: "slow", Run: pure(nap(20 * time.Millisecond))},
		Stage[int]{Name: "instant", Run: pure(nap(0))},
		Stage[int]{Name: "slower", Run: pure(nap(40 * time.Millisecond))},
	)
	_, stats, err := p.Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name string
		min  time.Duration
	}{{"slow", 20 * time.Millisecond}, {"instant", 0}, {"slower", 40 * time.Millisecond}}
	if len(stats) != len(want) {
		t.Fatalf("stats = %+v", stats)
	}
	for i, w := range want {
		if stats[i].Name != w.name || stats[i].Duration < w.min {
			t.Errorf("stats[%d] = %+v; want %s taking at least %v", i, stats[i], w.name, w.min)
		}
	}
	if stats[1].Duration >= stats[2].Duration {
		t.Errorf("durations not attributed per stage: %+v", stats)
	}
}

func TestStageErrorSkipsRemaining(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	p := New(
		Stage[int]{Name: "ok", Run: pure(func(x int) (int, error) { return x, nil })},
		Stage[int]{Name: "fail", Run: pure(func(int) (int, error) { return 0, boom })},
		Stage[int]{Name: "after", Run: pure(func(x int) (int, error) { ran = true; return x, nil })},
	)
	_, stats, err := p.Run(context.Background(), 1)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v; want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "fail stage") {
		t.Fatalf("error should name the failing stage: %v", err)
	}
	if ran {
		t.Error("a stage ran after an earlier stage failed")
	}
	// Every stage is still reported; the skipped one took no time.
	if len(stats) != 3 || stats[2].Name != "after" || stats[2].Duration != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRunErrorReturnsZeroState(t *testing.T) {
	p := New(
		Stage[string]{Name: "fail", Run: pure(func(string) (string, error) { return "x", errors.New("no") })},
	)
	out, _, err := p.Run(context.Background(), "in")
	if err == nil {
		t.Fatal("expected error")
	}
	if out != "" {
		t.Fatalf("errored Run should return the zero state, got %q", out)
	}
}

// A stage panic must surface as the stage's error, not unwind through the
// caller.
func TestStagePanicBecomesError(t *testing.T) {
	p := New(
		Stage[int]{Name: "boomy", Run: pure(func(x int) (int, error) {
			var s []int
			return s[5], nil // index out of range
		})},
	)
	_, _, err := p.Run(context.Background(), 1)
	if err == nil {
		t.Fatal("stage panic should surface as an error")
	}
	if !strings.Contains(err.Error(), "boomy stage") || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error should name the stage and the panic: %v", err)
	}
}

func TestEmptyPipeline(t *testing.T) {
	p := New[int]()
	out, stats, err := p.Run(context.Background(), 7)
	if err != nil || len(stats) != 0 {
		t.Fatalf("empty pipeline: %v, %v", err, stats)
	}
	if out != 7 {
		t.Fatalf("empty pipeline should pass the state through: %v", out)
	}
}

func TestUpto(t *testing.T) {
	trace := ""
	stage := func(name string) Stage[int] {
		return Stage[int]{Name: name, Run: pure(func(x int) (int, error) {
			trace += name + ";"
			return x + 1, nil
		})}
	}
	p := New(stage("prune"), stage("generate"), stage("execute"))
	out, stats, err := p.Upto("generate").Run(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != 2 || trace != "prune;generate;" {
		t.Fatalf("Upto ran the wrong stages: out=%d trace=%q", out, trace)
	}
	if len(stats) != 2 || stats[0].Name != "prune" || stats[1].Name != "generate" {
		t.Fatalf("stats = %+v", stats)
	}
	// Unknown names fall back to the whole pipeline.
	trace = ""
	if out, _, _ := p.Upto("nope").Run(context.Background(), 0); out != 3 || trace != "prune;generate;execute;" {
		t.Fatalf("Upto(unknown) should run everything: out=%d trace=%q", out, trace)
	}
}

// A context cancelled before the run starts fails it with the context's
// error and never invokes a stage.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	p := New(
		Stage[int]{Name: "never", Run: pure(func(x int) (int, error) { ran = true; return x, nil })},
	)
	_, _, err := p.Run(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if ran {
		t.Error("stage ran under a cancelled context")
	}
}

// A stage that blocks must observe cancellation through the ctx it is
// handed, and downstream stages must not run after it.
func TestRunCancelMidStage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	downstream := false
	p := New(
		Stage[int]{Name: "block", Run: func(ctx context.Context, x int) (int, error) {
			cancel()
			<-ctx.Done()
			return 0, ctx.Err()
		}},
		Stage[int]{Name: "after", Run: pure(func(x int) (int, error) { downstream = true; return x, nil })},
	)
	_, _, err := p.Run(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
	if downstream {
		t.Error("downstream stage ran after cancellation")
	}
}

func TestWorkerCount(t *testing.T) {
	cases := []struct{ requested, n, want int }{
		{4, 10, 4},
		{4, 2, 2},   // clamped to the work items
		{0, 0, 1},   // never below 1
		{-3, 5, -1}, // GOMAXPROCS-resolved: checked below
	}
	for _, tc := range cases {
		got := WorkerCount(tc.requested, tc.n)
		if tc.want > 0 && got != tc.want {
			t.Errorf("WorkerCount(%d, %d) = %d; want %d", tc.requested, tc.n, got, tc.want)
		}
		if got < 1 {
			t.Errorf("WorkerCount(%d, %d) = %d; must be >= 1", tc.requested, tc.n, got)
		}
	}
	if got := WorkerCount(0, 1<<30); got != runtime.GOMAXPROCS(0) {
		t.Errorf("WorkerCount(0, big) = %d; want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
}

func TestWorkers(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		var ran [8]atomic.Bool
		Workers(workers, func(w int) { ran[w].Store(true) })
		for w := 0; w < 8; w++ {
			if want := w < workers; ran[w].Load() != want {
				t.Errorf("Workers(%d): fn(%d) ran=%v want %v", workers, w, ran[w].Load(), want)
			}
		}
	}
}
