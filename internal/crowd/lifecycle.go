package crowd

import (
	"context"
	"errors"
	"fmt"

	"github.com/crowder/crowder/internal/aggregate"
)

// HITState is one task's position in the asynchronous lifecycle:
// posted → answering (k of r assignments in) → complete. Aggregation
// happens once per batch, over every completed HIT's answers.
type HITState int

const (
	// HITPosted: the task is live on the backend, no assignments yet.
	HITPosted HITState = iota
	// HITAnswering: between 1 and r−1 assignments have arrived.
	HITAnswering
	// HITComplete: all r assignments are in; the HIT's answers are final.
	HITComplete
	// HITRetracted: the run withdrew the task before completion because
	// its verdicts became deducible from other HITs' answers (adaptive
	// transitivity scheduling). Assignments already collected are still
	// paid for; outstanding ones are cancelled and never arrive.
	HITRetracted
)

func (s HITState) String() string {
	switch s {
	case HITPosted:
		return "posted"
	case HITAnswering:
		return "answering"
	case HITComplete:
		return "complete"
	case HITRetracted:
		return "retracted"
	default:
		return "unknown"
	}
}

// Progress is one lifecycle event, reported after every HIT state
// transition.
type Progress struct {
	// HIT is the ID of the task whose state changed; State its new state.
	HIT   int
	State HITState
	// TotalHITs / CompletedHITs track batch completion.
	TotalHITs     int
	CompletedHITs int
	// Answers counts the individual pair verdicts collected so far.
	Answers int
	// TopUps counts replication top-ups posted for expired assignments.
	TopUps int
	// Retracted counts the HITs withdrawn mid-flight because their
	// verdicts became deducible (adaptive transitivity scheduling).
	Retracted int
	// Interim is the Dawid–Skene posterior over the answers collected so
	// far, recomputed at each HIT completion when ExecuteOptions.Interim
	// is set; nil otherwise. It lets a long-running service report
	// tentative matches while the crowd is still working; the final
	// posterior is always recomputed over the full canonical answer set.
	Interim aggregate.Posterior
}

// ExecuteOptions tunes the lifecycle manager.
type ExecuteOptions struct {
	// OnProgress, when non-nil, receives an event after every HIT state
	// transition. Called from the manager's goroutine; keep it fast.
	OnProgress func(Progress)
	// Interim enables incremental Dawid–Skene re-aggregation as answers
	// land: the posterior over the answers collected so far is recomputed
	// at HIT completions and attached to the progress event. Each
	// recompute is a full EM pass, so it runs on a stride — at most ~32
	// evenly spaced completions per batch, plus the last — keeping the
	// collector loop responsive on large batches.
	Interim bool
	// OnHITComplete, when non-nil, receives each HIT with its full answer
	// set the moment it completes — before the batch finishes — so an
	// adaptive scheduler can fold verdicts into its deduction graph while
	// sibling HITs are still in flight. Called from the manager's
	// goroutine; keep it fast.
	OnHITComplete func(hit HIT, answers []aggregate.Answer)
	// Retractable, when non-nil, is polled for every in-flight HIT after
	// each completion: returning true withdraws the task mid-flight (its
	// verdicts have become deducible, so finishing it would waste crowd
	// work). Collected assignments stay paid for; outstanding ones are
	// cancelled, the HIT ends in HITRetracted, and its answers are
	// excluded from the batch result.
	Retractable func(hit HIT) bool
	// Aggregator, when non-nil, replaces the default Dawid–Skene
	// aggregation used for the interim posteriors: callers pass their
	// session's aggregator so the tentative numbers a client polls
	// mid-run mean the same thing as the final ones.
	Aggregator aggregate.Aggregator
	// Resume, when non-nil, carries a crashed run's recovered in-flight
	// HITs. Generated HITs matching a recovered one by content adopt the
	// recovered posting — original ID, original open/claimed lifecycle on
	// the backend, already-paid assignment slots pre-filled — instead of
	// being posted again, so a restarted resolve re-issues zero HITs for
	// work the crowd already holds or has already answered.
	Resume *ResumeState
}

// hitRun is one HIT's mutable lifecycle state inside the manager.
type hitRun struct {
	hit     HIT
	state   HITState
	slots   []Assignment // completed assignments, arrival order
	needed  int
	adopted bool // recovered posting: already live on the backend
}

// ExecuteHITs drives a batch of HITs through the asynchronous lifecycle
// against a Backend: post every task, collect assignments as workers
// complete them, top up the replication of assignments whose leases
// expired, and assemble the completed outcomes — in HIT order, with the
// exact per-kind answer layout of the synchronous executor, so a
// simulated-backend run is bit-identical to the legacy in-process path.
//
// On error (including ctx cancellation) the returned Result is still
// non-nil and carries every answer collected before the failure — paid-for
// crowd work the caller can persist as partial assignment sets — alongside
// the error. Unfinished HITs are retracted from backends that support it.
func ExecuteHITs(ctx context.Context, b Backend, hits []HIT, opts ExecuteOptions) (*Result, error) {
	if len(hits) == 0 {
		return &Result{}, nil
	}

	runs := make([]*hitRun, len(hits))
	byID := make(map[int]*hitRun, len(hits))
	adopted := 0
	for i, h := range hits {
		hr := &hitRun{hit: h, state: HITPosted, needed: h.Assignments}
		if rh, ok := opts.Resume.take(h); ok {
			// Adopt the crashed run's posting: keeping its ID keeps every
			// outstanding claim, buffered answer and expiry top-up on the
			// backend valid, and the slots already paid for count here
			// instead of being asked again.
			hr.hit = rh.HIT
			hr.hit.Likelihoods = h.Likelihoods // the same pairs: content-keyed
			hr.needed = rh.HIT.Assignments
			hr.slots = append(hr.slots, rh.Slots...)
			hr.adopted = true
			adopted++
		}
		runs[i] = hr
		byID[hr.hit.ID] = hr
	}

	// A cancel scoped to this run stops the backend's pump goroutine as
	// soon as the run ends, however it ends.
	collectCtx, cancelCollect := context.WithCancel(ctx)
	defer cancelCollect()
	stream := b.Collect(collectCtx)

	// Withdraw the run's HITs when it ends, completed ones included: the
	// backend has no further use for their bookkeeping once the manager
	// has collected the assignments, and a long-lived backend absorbing
	// run after run must not accumulate them.
	defer func() {
		if rt, ok := b.(Retractor); ok {
			ids := make([]int, len(runs))
			for i, hr := range runs {
				ids[i] = hr.hit.ID
			}
			rt.Retract(ids)
		}
	}()

	completed, retracted, answers, topUps := 0, 0, 0, 0

	// partial assembles the result of an aborted run: every collected
	// assignment, regardless of HIT completion.
	partial := func() *Result {
		res := assembleResult(b, runs, false)
		res.TopUps = topUps
		res.RetractedHITs = retracted
		return res
	}

	interimStride := 1
	if s := len(hits) / 32; s > 1 {
		interimStride = s
	}
	report := func(hr *hitRun) {
		if opts.OnProgress == nil {
			return
		}
		ev := Progress{
			HIT:           hr.hit.ID,
			State:         hr.state,
			TotalHITs:     len(hits),
			CompletedHITs: completed,
			Answers:       answers,
			TopUps:        topUps,
			Retracted:     retracted,
		}
		if opts.Interim && hr.state == HITComplete &&
			(completed == len(hits) || completed%interimStride == 0) {
			ev.Interim = interimPosterior(runs, opts.Aggregator)
		}
		opts.OnProgress(ev)
	}

	// sweepRetractable polls the in-flight HITs after a completion and
	// withdraws those whose verdicts have become deducible. Sweep order is
	// the posting order, so retraction is deterministic.
	sweepRetractable := func() {
		if opts.Retractable == nil {
			return
		}
		var ids []int
		for _, hr := range runs {
			if hr.state == HITComplete || hr.state == HITRetracted {
				continue
			}
			if opts.Retractable(hr.hit) {
				hr.state = HITRetracted
				retracted++
				ids = append(ids, hr.hit.ID)
				report(hr)
			}
		}
		if len(ids) > 0 {
			if rt, ok := b.(Retractor); ok {
				rt.Retract(ids)
			}
		}
	}

	toPost := hits
	if adopted > 0 {
		// Adopted HITs are already live on the backend — re-posting them
		// would open duplicate assignments and pay twice.
		toPost = make([]HIT, 0, len(hits)-adopted)
		for _, hr := range runs {
			if !hr.adopted {
				toPost = append(toPost, hr.hit)
			}
		}
	}
	if len(toPost) > 0 {
		if err := b.Post(ctx, toPost); err != nil {
			return partial(), fmt.Errorf("crowd: posting HITs: %w", err)
		}
	}
	if opts.OnProgress != nil {
		for _, hr := range runs {
			report(hr)
		}
	}
	if adopted > 0 {
		// Fold the recovered assignments in after the posted reports, in
		// run order, firing the same per-completion hooks a live arrival
		// would have.
		anyComplete := false
		for _, hr := range runs {
			if len(hr.slots) == 0 {
				continue
			}
			for _, a := range hr.slots {
				answers += len(a.Answers)
			}
			if len(hr.slots) >= hr.needed {
				hr.state = HITComplete
				completed++
			} else {
				hr.state = HITAnswering
			}
			report(hr)
			if hr.state == HITComplete {
				anyComplete = true
				if opts.OnHITComplete != nil {
					opts.OnHITComplete(hr.hit, hitAnswers(hr))
				}
			}
		}
		if anyComplete {
			sweepRetractable()
		}
	}

	for completed+retracted < len(hits) {
		select {
		case <-ctx.Done():
			return partial(), ctx.Err()
		case a, ok := <-stream:
			if !ok {
				// The pump also closes the stream on cancellation, and the
				// select may pick this case over ctx.Done — report the
				// cancellation, not a backend failure.
				if err := ctx.Err(); err != nil {
					return partial(), err
				}
				return partial(), errors.New("crowd: backend closed the assignment stream before all HITs completed")
			}
			hr := byID[a.HIT]
			if hr == nil || hr.state == HITComplete || hr.state == HITRetracted {
				continue // stale: another run's task, a late extra answer, or
				// an assignment of a withdrawn task still in the pipe
			}
			if a.Expired {
				// Replication top-up: re-post the same task asking for one
				// more assignment to replace the lapsed one.
				topUps++
				topUp := hr.hit
				topUp.Assignments = 1
				if err := b.Post(ctx, []HIT{topUp}); err != nil {
					return partial(), fmt.Errorf("crowd: re-posting expired assignment: %w", err)
				}
				continue
			}
			if hr.adopted && duplicateSlot(hr.slots, a.Slot) {
				// A recovered assignment can arrive again on the live
				// stream (journaled before the crash and re-delivered by a
				// backend that buffered it); count it once.
				continue
			}
			hr.slots = append(hr.slots, a)
			// Keep slots in replication-slot order regardless of arrival
			// order, so the assembled layout matches the synchronous
			// executor's bit-for-bit.
			for i := len(hr.slots) - 1; i > 0 && hr.slots[i].Slot < hr.slots[i-1].Slot; i-- {
				hr.slots[i], hr.slots[i-1] = hr.slots[i-1], hr.slots[i]
			}
			answers += len(a.Answers)
			if len(hr.slots) >= hr.needed {
				hr.state = HITComplete
				completed++
			} else {
				hr.state = HITAnswering
			}
			report(hr)
			if hr.state == HITComplete {
				if opts.OnHITComplete != nil {
					opts.OnHITComplete(hr.hit, hitAnswers(hr))
				}
				sweepRetractable()
			}
		}
	}

	res := assembleResult(b, runs, true)
	res.TopUps = topUps
	res.RetractedHITs = retracted
	return res, nil
}

// duplicateSlot reports whether a replication slot is already collected.
func duplicateSlot(slots []Assignment, slot int) bool {
	for _, s := range slots {
		if s.Slot == slot {
			return true
		}
	}
	return false
}

// hitAnswers flattens one completed HIT's collected answers (all
// replication slots, slot order).
func hitAnswers(hr *hitRun) []aggregate.Answer {
	var all []aggregate.Answer
	for _, a := range hr.slots {
		all = append(all, a.Answers...)
	}
	return all
}

// interimPosterior aggregates the answers collected so far — with the
// caller's aggregator, or plain Dawid–Skene when none was supplied — in
// canonical order so the result is a pure function of the answer set.
// Retracted HITs' fragments are excluded, matching the final
// aggregation.
func interimPosterior(runs []*hitRun, agg aggregate.Aggregator) aggregate.Posterior {
	var all []aggregate.Answer
	for _, hr := range runs {
		if hr.state == HITRetracted {
			continue
		}
		for _, a := range hr.slots {
			all = append(all, a.Answers...)
		}
	}
	if len(all) == 0 {
		return aggregate.Posterior{}
	}
	aggregate.SortCanonical(all)
	if agg != nil {
		return agg.Aggregate(all)
	}
	return aggregate.DawidSkene(all, aggregate.DawidSkeneOptions{})
}

// assembleResult flattens runs into a Result in HIT order. For a
// complete run it reconstructs the synchronous executor's exact answer
// layout — pair HITs interleave answers pair-major (each pair's replicas
// adjacent), cluster HITs concatenate assignment-major (each worker's
// pass over the group adjacent) — and asks a Scheduler backend for the
// makespan. For an aborted run the layout is loose concatenation and the
// makespan model does not apply (the batch never finished), so the
// longest collected assignment stands in. Cost and worker accounting are
// shared: both paths pay per collected assignment — including the
// assignments of retracted HITs, whose answers are otherwise excluded
// (their pairs were resolved by deduction, not by these fragments).
func assembleResult(b Backend, runs []*hitRun, complete bool) *Result {
	total, answers := 0, 0
	for _, hr := range runs {
		total += len(hr.slots)
		if hr.state != HITRetracted {
			for _, a := range hr.slots {
				answers += len(a.Answers)
			}
		}
	}
	res := &Result{Answers: make([]aggregate.Answer, 0, answers), AssignmentSeconds: make([]float64, 0, total), Spans: make([]int, 1, len(runs)+1)}
	used := make(map[int]bool)
	for _, hr := range runs {
		if hr.state == HITRetracted {
			res.Spans = append(res.Spans, len(res.Answers))
			for _, a := range hr.slots {
				res.AssignmentSeconds = append(res.AssignmentSeconds, a.Seconds)
				if a.Worker >= 0 {
					used[a.Worker] = true
				}
				for _, it := range a.Answers {
					used[it.Worker] = true
				}
			}
			continue
		}
		if complete && hr.hit.Kind == PairKind {
			for p := range hr.hit.Pairs {
				for _, a := range hr.slots {
					if p < len(a.Answers) {
						res.Answers = append(res.Answers, a.Answers[p])
					}
				}
			}
		} else {
			for _, a := range hr.slots {
				res.Answers = append(res.Answers, a.Answers...)
			}
		}
		res.Spans = append(res.Spans, len(res.Answers))
		for _, a := range hr.slots {
			res.AssignmentSeconds = append(res.AssignmentSeconds, a.Seconds)
			if a.Worker >= 0 {
				used[a.Worker] = true
			}
			for _, it := range a.Answers {
				used[it.Worker] = true
			}
		}
	}
	res.WorkersUsed = len(used)
	res.CostDollars = float64(total) * DollarsPerAssignment
	sch, ok := b.(Scheduler)
	if complete && ok {
		res.TotalSeconds = sch.TotalSeconds(res.AssignmentSeconds)
	} else {
		for _, s := range res.AssignmentSeconds {
			if s > res.TotalSeconds {
				res.TotalSeconds = s
			}
		}
	}
	return res
}
