// Package engine provides the staged execution framework behind
// crowder.Resolve: a pipeline of named stages run in order on the
// caller's goroutine, with per-stage wall-clock accounting.
//
// The pipeline is generic over the state type S; crowder threads one
// resolve-state struct through prune → generate → execute → aggregate.
// Each stage runs under a pprof "stage" label, so CPU, mutex and block
// profiles attribute their samples to stages by name, and a stage panic
// surfaces as that stage's error.
//
// Every run is bound to a context.Context: stages receive it and are
// expected to honour cancellation mid-stage (long-running stages such as
// asynchronous crowd execution select on ctx.Done), and the pipeline
// itself starts no further stage once the context is cancelled. A
// cancelled run returns ctx's error.
package engine

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"
)

// StageStat is the measured wall-clock time a stage spent processing, as
// reported by Run.
type StageStat struct {
	Name     string
	Duration time.Duration
}

// Stage is one step of a pipeline: a named transformation of the state.
// Run receives the run's context and the state produced by the previous
// stage and returns the state handed to the next one. Stages that block —
// waiting on crowd answers, network calls — must select on ctx.Done so
// in-flight runs cancel cleanly.
type Stage[S any] struct {
	Name string
	Run  func(context.Context, S) (S, error)
}

// Pipeline chains stages over a state type S.
type Pipeline[S any] struct {
	stages []Stage[S]
}

// New builds a pipeline from the given stages, executed in order.
func New[S any](stages ...Stage[S]) *Pipeline[S] {
	return &Pipeline[S]{stages: stages}
}

// Upto returns the sub-pipeline consisting of the stages up to and
// including the first stage with the given name, sharing the underlying
// stage definitions. Callers that only need a prefix of a workflow — cost
// estimation runs prune→generate without ever executing the crowd —
// derive it from the canonical pipeline instead of duplicating stage
// wiring. If no stage has the name, the whole pipeline is returned.
func (p *Pipeline[S]) Upto(name string) *Pipeline[S] {
	for i, st := range p.stages {
		if st.Name == name {
			return &Pipeline[S]{stages: p.stages[:i+1]}
		}
	}
	return p
}

// Run sends the state through the stages in order and returns the final
// state plus every stage's timing, in stage order. ctx is checked before
// each stage. On a stage error, or once ctx is cancelled, the remaining
// stages are skipped (their durations stay zero) and the error is
// returned with the zero state; a stage's error is prefixed with its
// name, and a stage panic is returned as that stage's error instead of
// unwinding through the caller.
func (p *Pipeline[S]) Run(ctx context.Context, s S) (S, []StageStat, error) {
	var zero S
	stats := make([]StageStat, len(p.stages))
	for i, st := range p.stages {
		stats[i].Name = st.Name
	}
	for i, st := range p.stages {
		if err := ctx.Err(); err != nil {
			return zero, stats, err
		}
		start := time.Now()
		var err error
		pprof.Do(ctx, pprof.Labels("stage", st.Name), func(ctx context.Context) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			s, err = st.Run(ctx, s)
		})
		stats[i].Duration = time.Since(start)
		if err != nil {
			return zero, stats, fmt.Errorf("%s stage: %w", st.Name, err)
		}
	}
	return s, stats, nil
}
