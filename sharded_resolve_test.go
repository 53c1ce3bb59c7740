package crowder

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/verdicts"
)

// shardedEqualityOptions is the configuration the cross-shard-count
// equality tests resolve under: transitivity on, so deduction proofs and
// witness provenance are part of the compared state, and a clean worker
// pool, so every verdict is a pure function of (Seed, pair).
func shardedEqualityOptions(oracle []Pair, shards int) Options {
	return Options{
		Threshold:    0.4,
		HITType:      PairHITs,
		ClusterSize:  10,
		Oracle:       oracle,
		Seed:         1,
		SpammerRate:  NoSpammers,
		Transitivity: TransitivityOn,
		Shards:       shards,
	}
}

// assertSameCache compares two sessions' verdict caches entry by entry:
// same pairs, same provenance, same posteriors and likelihoods, and —
// for deduced pairs — identical proofs (path, witness, polarity). This
// is the "internal/verdicts replays identically" half of the sharding
// contract: not just the same matches, but the same evidence.
func assertSameCache(t *testing.T, label string, want, got *verdicts.Cache) {
	t.Helper()
	wantPairs, gotPairs := want.Pairs(), got.Pairs()
	if !reflect.DeepEqual(wantPairs, gotPairs) {
		t.Fatalf("%s: cache holds %d pairs, want %d", label, len(gotPairs), len(wantPairs))
	}
	if want.DeducedLen() != got.DeducedLen() {
		t.Fatalf("%s: %d deduced pairs, want %d", label, got.DeducedLen(), want.DeducedLen())
	}
	for _, p := range wantPairs {
		we, ge := want.Get(p), got.Get(p)
		if we.Provenance != ge.Provenance {
			t.Fatalf("%s: pair %v is %v, want %v", label, p, ge.Provenance, we.Provenance)
		}
		if we.Posterior != ge.Posterior || we.Likelihood != ge.Likelihood {
			t.Fatalf("%s: pair %v posterior/likelihood %v/%v, want %v/%v",
				label, p, ge.Posterior, ge.Likelihood, we.Posterior, we.Likelihood)
		}
		if !reflect.DeepEqual(we.Answers, ge.Answers) {
			t.Fatalf("%s: pair %v answers differ", label, p)
		}
		if !reflect.DeepEqual(we.Deduction, ge.Deduction) {
			t.Fatalf("%s: pair %v proof differs:\n got %+v\nwant %+v",
				label, p, ge.Deduction, we.Deduction)
		}
	}
}

// Tentpole acceptance: resolutions are bit-identical at every shard
// count — matches, verdict-cache contents and deduction proofs — both
// from scratch and through a k-batch incremental session. Product+Dup
// is the clique-rich workload (duplicate cliques of up to 10), so a
// large fraction of the compared verdicts are transitive deductions
// with proofs, not just crowd answers.
func TestShardedResolutionBitIdentical(t *testing.T) {
	rows, schema, oracle, _ := productDupDataset()

	resolveScratch := func(t *testing.T, shards int) (*Resolver, *Result) {
		opts := shardedEqualityOptions(oracle, shards)
		opts.Threshold = 0.5
		rv, err := NewResolver(NewTable(schema...), opts)
		if err != nil {
			t.Fatal(err)
		}
		rv.AppendBatch(rows...)
		res, err := rv.ResolveDelta()
		if err != nil {
			t.Fatal(err)
		}
		return rv, res
	}

	baseline, baseRes := resolveScratch(t, 0)
	if len(baseRes.Matches) == 0 {
		t.Fatal("baseline resolution produced no matches")
	}
	if baseRes.DeducedPairs == 0 {
		t.Fatal("baseline resolution deduced nothing; the proof comparison is vacuous")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rv, res := resolveScratch(t, shards)
			label := "scratch"
			assertSameMatches(t, label, baseRes.Matches, res.Matches)
			assertSameCache(t, label, baseline.cache, rv.cache)
			if res.HITs != baseRes.HITs || res.DeducedPairs != baseRes.DeducedPairs {
				t.Fatalf("%d HITs / %d deduced, want %d / %d",
					res.HITs, res.DeducedPairs, baseRes.HITs, baseRes.DeducedPairs)
			}

			// k-batch incremental session at the same shard count.
			incOpts := shardedEqualityOptions(oracle, shards)
			incOpts.Threshold = 0.5
			inc, err := NewResolver(NewTable(schema...), incOpts)
			if err != nil {
				t.Fatal(err)
			}
			var last *Result
			const batches = 3
			size := (len(rows) + batches - 1) / batches
			for lo := 0; lo < len(rows); lo += size {
				hi := min(lo+size, len(rows))
				inc.AppendBatch(rows[lo:hi]...)
				if last, err = inc.ResolveDelta(); err != nil {
					t.Fatal(err)
				}
			}
			assertSameMatches(t, "k-batch", baseRes.Matches, last.Matches)
			assertSameCache(t, "k-batch", baseline.cache, inc.cache)
		})
	}
}

// Satellite: session reads proceed during a resolve. A queue-backed
// sharded resolution blocks on the crowd; while it waits, Verdict,
// JudgedPairs, WorkerStats, PendingPairs, Record and Len must all answer
// from the shared lock instead of queueing behind the job. Run under
// -race (the module race job does): the assertions here are secondary to
// the interleaving itself.
func TestResolverReadsDuringResolve(t *testing.T) {
	rows, schema, oracle := resolverDataset(7, 120, 24)
	truth := map[Pair]bool{}
	for _, p := range oracle {
		truth[p] = true
	}
	q := NewQueueBackend(QueueOptions{})
	opts := shardedEqualityOptions(oracle, 2)
	opts.Oracle = nil
	opts.Backend = q
	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	rv.AppendBatch(rows...)

	done := make(chan error, 1)
	go func() {
		_, err := rv.ResolveDeltaContext(context.Background())
		done <- err
	}()

	// Worker goroutine: claim and answer HITs with ground truth until
	// the resolution finishes. Worker identities rotate — the queue
	// hands each HIT to a given worker at most once, and multi-
	// assignment HITs need as many distinct workers as assignments.
	stop := make(chan struct{})
	go func() {
		worker := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			worker++
			c, ok := q.Claim(fmt.Sprintf("w%d", worker%16))
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			var vs []Verdict
			for _, p := range c.HIT.Pairs {
				vs = append(vs, Verdict{A: record.ID(p.A), B: record.ID(p.B), Match: truth[Pair{A: int(p.A), B: int(p.B)}]})
			}
			if err := q.Answer(c.Token, vs); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Reader loop on the test goroutine: every session read runs many
	// times while the resolve is in flight. The loop yields briefly each
	// pass so the resolve and worker goroutines get CPU on small hosts.
	reads := 0
	for {
		select {
		case err := <-done:
			close(stop)
			if err != nil {
				t.Fatal(err)
			}
			if reads == 0 {
				t.Fatal("resolve finished before any concurrent read ran")
			}
			if rv.JudgedPairs() == 0 {
				t.Fatal("queue-backed resolve judged nothing")
			}
			return
		case <-time.After(100 * time.Microsecond):
		}
		rv.Len()
		rv.Record(reads % len(rows))
		rv.JudgedPairs()
		rv.PendingPairs()
		rv.PartialPairs()
		rv.WorkerStats()
		rv.Verdict(Pair{A: 0, B: 1})
		reads++
	}
}
