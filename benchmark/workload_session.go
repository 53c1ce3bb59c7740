package main

// session-delta: one long-lived session on a durable crowderd, driven
// over HTTP. Pair HITs, transitivity on, hybrid router on, Dawid–Skene
// MAP. A base table is resolved in set-up; phase A is rounds of
// append-a-batch -> POST resolve -> poll the job to done, phase B reads
// the match list from nproc clients, phase C restarts the daemon on the
// same data directory.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
)

const sessionTable = "restaurants"

// sessionPlan sizes one session: which rows, how they arrive, and the
// likelihood threshold.
type sessionPlan struct {
	in                  *input
	base, rounds, batch int
	tau                 float64
}

// sessionPlanFor is the session-delta workload's own plan.
func sessionPlanFor(r *run) sessionPlan {
	n := r.sz.SessionBase + r.sz.SessionRounds*r.sz.SessionBatch
	return sessionPlan{
		in:   newInput(dataset.RestaurantN(r.seed, n, n/10)).shuffled(r.seed),
		base: r.sz.SessionBase, rounds: r.sz.SessionRounds, batch: r.sz.SessionBatch, tau: r.sz.SessionTau,
	}
}

// boundaries lists the table length after the base load and after each
// round.
func (p sessionPlan) boundaries() []int {
	out := []int{p.base}
	for i := 1; i <= p.rounds; i++ {
		out = append(out, p.base+i*p.batch)
	}
	return out
}

// libOptions are the library options equal to the table options create
// posts.
func (p sessionPlan) libOptions(r *run) crowder.Options {
	return crowder.Options{
		Threshold:    p.tau,
		HITType:      crowder.PairHITs,
		Seed:         r.seed,
		Transitivity: crowder.TransitivityOn,
		Hybrid:       crowder.HybridOn,
		Aggregation:  crowder.AggregationDawidSkeneMAP,
		Oracle:       p.in.oracle,
	}
}

func (p sessionPlan) create(r *run, c *client) error {
	return c.do("POST", "/tables/"+sessionTable, map[string]any{
		"schema": p.in.schema,
		"options": map[string]any{
			"threshold": p.tau, "hit_type": "pair", "seed": r.seed,
			"transitivity": true, "hybrid": true, "aggregation": "dawid-skene-map",
			"oracle": oracleJSON(p.in.oracle),
		},
	}, nil)
}

// readStats is what phase B measured.
type readStats struct {
	size             int64     // unfiltered body, bytes
	fullMs, filterMs []float64 // per read, unfiltered and ?min=0.9
	wallS            float64
}

// sessionUnit is one session's lifetime: set-up, then phase A (rounds),
// phase B (reads) and phase C (restart).
type sessionUnit struct {
	dir string
	d   *daemon
	c   *client

	setupS  float64
	rounds  []float64 // seconds, append sent -> job seen done
	appends []float64 // seconds, POST /records alone
	phaseS  float64
	// Summed over the base resolve and every round.
	hits, newCandidates, machinePairs, deducedPairs int

	reads readStats
	// before is the match list served when the daemon went down; after is
	// the empty resolve the restarted daemon ran before serving again.
	before    []crowder.Match
	after     jobResult
	restartMs []float64
}

func (u *sessionUnit) add(res jobResult) {
	u.hits += res.HITs
	u.newCandidates += res.NewCandidates
	u.machinePairs += res.MachinePairs
	u.deducedPairs += res.DeducedPairs
}

// sessionSetup starts a daemon on a fresh data directory and resolves
// the base table.
func sessionSetup(r *run, p sessionPlan, name string) (*sessionUnit, error) {
	start := time.Now()
	u := &sessionUnit{dir: filepath.Join(r.tmp, name)}
	if err := os.MkdirAll(u.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if u.d, err = startDaemon(u.dir, false); err != nil {
		return nil, err
	}
	u.c = newClient(u.d.url)
	if err = p.create(r, u.c); err == nil {
		err = u.c.do("POST", "/tables/"+sessionTable+"/records", map[string]any{"rows": p.in.rows[:p.base]}, nil)
	}
	var res jobResult
	if err == nil {
		res, err = u.c.resolveAndWait(sessionTable)
	}
	if err != nil {
		u.stop()
		return nil, err
	}
	u.add(res)
	u.setupS = time.Since(start).Seconds()
	return u, nil
}

func (u *sessionUnit) stop() {
	u.c.close()
	u.d.stop()
}

// phaseA runs the timed rounds. Every HTTP exchange is an operation.
func (u *sessionUnit) phaseA(r *run, p sessionPlan) error {
	start := time.Now()
	for i := 0; i < p.rounds; i++ {
		lo := p.base + i*p.batch
		t0 := time.Now()
		err := u.c.do("POST", "/tables/"+sessionTable+"/records", map[string]any{"rows": p.in.rows[lo : lo+p.batch]}, nil)
		appendS := time.Since(t0).Seconds()
		if !r.op(err == nil, "append round %d: %v", i, err) {
			continue
		}
		res, err := u.c.resolveAndWait(sessionTable)
		if !r.op(err == nil, "resolve round %d: %v", i, err) {
			continue
		}
		u.add(res)
		u.appends = append(u.appends, appendS)
		u.rounds = append(u.rounds, time.Since(t0).Seconds())
	}
	u.phaseS = time.Since(start).Seconds()
	if len(u.rounds) == 0 {
		return fmt.Errorf("no round completed")
	}
	return nil
}

// phaseB reads the finished session's match list for the given time:
// nproc closed-loop clients on GET /matches, three unfiltered reads to
// one ?min=0.9, bodies read and discarded. The list is checksummed once
// before and once after, never inside the loop.
func (u *sessionUnit) phaseB(r *run, seconds float64) error {
	const full, filtered = "/tables/" + sessionTable + "/matches", "/tables/" + sessionTable + "/matches?min=0.9"
	status, size, wantCRC, err := u.c.call("GET", full, nil, nil, true)
	if !r.op(err == nil && status == 200, "GET /matches: HTTP %d %v", status, err) {
		return fmt.Errorf("the session serves no match list")
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		rs = readStats{size: size}
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for w := 0; w < r.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(u.d.url)
			defer c.close()
			var mine, mineFiltered []float64
			for i := 0; time.Now().Before(deadline); i++ {
				path, into := full, &mine
				if i%4 == 3 {
					path, into = filtered, &mineFiltered
				}
				t0 := time.Now()
				status, n, _, err := c.call("GET", path, nil, nil, false)
				ok := err == nil && status == 200 && (path != full || n == size)
				if r.op(ok, "GET %s: HTTP %d, %d bytes, %v", path, status, n, err) {
					*into = append(*into, 1000*time.Since(t0).Seconds())
				}
			}
			mu.Lock()
			rs.fullMs, rs.filterMs = append(rs.fullMs, mine...), append(rs.filterMs, mineFiltered...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	rs.wallS = time.Since(start).Seconds()
	_, _, crc, err := u.c.call("GET", full, nil, nil, true)
	r.op(err == nil && crc == wantCRC, "unfiltered /matches body changed during the read phase")
	u.reads = rs
	if len(rs.fullMs) == 0 || len(rs.filterMs) == 0 {
		return fmt.Errorf("the read phase completed %d unfiltered and %d filtered reads", len(rs.fullMs), len(rs.filterMs))
	}
	return nil
}

// phaseC takes the daemon down as a crash would and times bringing it
// back on the same data directory until GET /matches answers again.
// Matches are served from the last finished job, so the restarted
// daemon runs an empty resolve first; its result is kept for the check.
// The restarted daemon stays up as the unit's.
func (u *sessionUnit) phaseC(r *run) error {
	u.stop()
	var (
		err    error
		served bool
	)
	ms := 1000 * r.tr.do(-1, "service.recover", func() {
		d, derr := startDaemon(u.dir, true)
		if err = derr; err != nil {
			return
		}
		u.d, u.c = d, newClient(d.url)
		if u.after, err = u.c.resolveAndWait(sessionTable); err != nil {
			return
		}
		status, _, _, cerr := u.c.call("GET", "/tables/"+sessionTable+"/matches", nil, nil, false)
		served, err = status == 200, cerr
	})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.op(served, "restart: /matches not served")
	u.restartMs = append(u.restartMs, ms)
	return nil
}

// sessionServe runs a session up to its restart: set-up, phases A and
// B, and the match list as served. The unit's daemon is left running.
func sessionServe(r *run, p sessionPlan, name string) (*sessionUnit, error) {
	u, err := sessionSetup(r, p, name)
	if err != nil {
		return nil, err
	}
	if err = u.phaseA(r, p); err == nil {
		err = u.phaseB(r, r.sz.ReadSeconds)
	}
	if err == nil {
		u.before, err = u.c.matchesOf(sessionTable)
	}
	if err != nil {
		u.stop()
		return nil, err
	}
	return u, nil
}

// sessionReplay is the same session fed to a library Resolver.
type sessionReplay struct {
	rv     *crowder.Resolver
	last   *crowder.Result
	stages map[string]float64
	wallS  float64 // sum of the AppendBatch + ResolveDelta spans
	hits   int
}

// sessionLibrary replays base + rounds through a library Resolver with
// the same options: the reference the HTTP session must equal, and the
// source of the per-stage timings.
func sessionLibrary(r *run, p sessionPlan) (*sessionReplay, error) {
	rp := &sessionReplay{stages: map[string]float64{}}
	rv, err := crowder.NewResolver(crowder.NewTable(p.in.schema...), p.libOptions(r))
	if err != nil {
		return nil, err
	}
	rp.rv = rv
	id := r.tr.begin(-1, "replay.session")
	defer r.tr.end(id)
	next := 0
	for _, hi := range p.boundaries() {
		rp.wallS += r.tr.do(id, "crowder.append_batch", func() { rv.AppendBatch(p.in.rows[next:hi]...) })
		next = hi
		rp.wallS += r.tr.do(id, "crowder.resolve_delta", func() { rp.last, err = rv.ResolveDelta() })
		if err != nil {
			return nil, err
		}
		rp.hits += rp.last.HITs
		for name, s := range stageSeconds(rp.last) {
			rp.stages[name] += s
		}
	}
	return rp, nil
}

// sessionCheck holds a restarted session to its contract: the match
// list it served before going down equals a library Resolver fed the
// same batches, and the restarted daemon continued exactly like a
// session that never went down — same matches, not one HIT more. In a
// hybrid session the empty delta after the restart is the router's
// self-audit — it may re-score machine verdicts and even buy HITs — so
// the recovered list is held to the control's (the library Resolver
// running the same empty delta), not to the literal pre-restart list.
func sessionCheck(r *run, u *sessionUnit, lib *sessionReplay) error {
	r.op(sameMatches(u.before, lib.last.Matches), "HTTP match list differs from the library Resolver fed the same batches (%d vs %d matches)", len(u.before), len(lib.last.Matches))
	r.op(u.hits == lib.hits, "HTTP session issued %d HITs, library session %d", u.hits, lib.hits)
	ctl, err := lib.rv.ResolveDelta()
	if err != nil {
		return err
	}
	recovered, err := u.c.matchesOf(sessionTable)
	if err != nil {
		return err
	}
	r.op(u.after.HITs == ctl.HITs, "recovered session re-issued HITs: %d posted after restart, never-crashed control %d", u.after.HITs, ctl.HITs)
	r.op(sameMatches(recovered, ctl.Matches), "recovered match list differs from the never-crashed control")
	return nil
}

// sessionReplayOnce is the workload's resolve taken apart, over the
// whole session's records at once: the machine half, then pair HITs,
// the lifecycle over the simulator and MAP.
func sessionReplayOnce(r *run, tr *tracer, p sessionPlan) (*replay, error) {
	id := tr.begin(-1, "replay.pipeline")
	defer tr.end(id)
	rp := machineReplay(r, tr, id, p.in, p.tau, 0)
	return rp, rp.pairCrowd(r, tr, id)
}

func sessionE2E(r *run) error {
	p := sessionPlanFor(r)
	var (
		setups, rates, p50s, reads, readP50s, filtered, restarts []float64
		last                                                     *sessionUnit
		nRounds, nReads                                          int
	)
	// A run repeats whole sessions until phase A adds up to -seconds;
	// every metric is the median over them.
	for total, i := 0.0, 0; total < r.seconds || i < r.sz.Setups; i++ {
		if last != nil {
			last.stop()
		}
		u, err := sessionServe(r, p, fmt.Sprintf("session-%d", i))
		if err != nil {
			return err
		}
		last = u
		if err := u.phaseC(r); err != nil {
			u.stop()
			return err
		}
		setups = append(setups, u.setupS)
		rates = append(rates, float64(len(u.rounds))/u.phaseS)
		p50s = append(p50s, 1000*median(u.rounds))
		reads = append(reads, float64(len(u.reads.fullMs))/u.reads.wallS)
		readP50s = append(readP50s, median(u.reads.fullMs))
		filtered = append(filtered, float64(len(u.reads.filterMs))/u.reads.wallS)
		restarts = append(restarts, u.restartMs...)
		nRounds += len(u.rounds)
		nReads += len(u.reads.fullMs)
		total += u.phaseS
	}
	defer last.stop()

	lib, err := sessionLibrary(r, p)
	if err != nil {
		return err
	}
	if err := sessionCheck(r, last, lib); err != nil {
		return err
	}
	score := f1(last.before, p.in.truth)
	r.op(score > 0.5, "F1 %.3f against planted truth", score)

	r.gate("setup_s", median(setups))
	r.gate("delta_rounds_per_s", median(rates))
	r.gate("delta_round_ms_p50", median(p50s))
	r.gate("crowd_hits_per_1k_records", 1000*float64(last.hits)/float64(len(p.in.rows)))
	r.gate("f1", score)
	r.gate("matches_reads_per_s", median(reads))
	r.gate("matches_read_ms_p50", median(readP50s))
	r.gate("filtered_reads_per_s", median(filtered))
	r.gate("recover_ms", median(restarts))
	r.samples("setup_s", len(setups))
	r.samples("delta_rounds_per_s", len(rates))
	r.samples("delta_round_ms_p50", nRounds)
	r.samples("matches_read_ms_p50", nReads)
	r.samples("recover_ms", len(restarts))
	r.detail("matches_bytes", "B", float64(last.reads.size))
	return nil
}

func sessionTrace(r *run) error {
	p := sessionPlanFor(r)
	rp, err := tracedReplay(r, func(tr *tracer) (*replay, error) { return sessionReplayOnce(r, tr, p) })
	if err != nil {
		return err
	}
	iso := r.tr.begin(-1, "replay.isolated")
	probeJaccard(r, iso, rp)
	probeLevenshtein(r, iso, rp)
	probeDeltaJoin(r, iso, p)
	probeAggregators(r, iso, rp, "map")
	byPair := rp.answersByPair()
	probeVerdicts(r, iso, rp, byPair)
	probeTransitivity(r, iso, rp)
	if err = probeLearn(r, iso, rp); err == nil {
		err = probeStore(r, iso, rp, byPair)
	}
	r.tr.end(iso)
	if err != nil {
		return err
	}
	// The session itself over HTTP, for the tails and sub-steps of its
	// loops; its library twin gives the stage timings.
	lib, err := serviceSession(r, p)
	if err != nil {
		return err
	}
	r.setStages(lib.stages, lib.wallS)
	return nil
}
