// Package service implements crowderd: the crowder engine packaged as a
// long-running HTTP daemon. Each table is an incremental resolution
// session (crowder.Resolver) owned by the server; clients append records,
// kick off delta resolutions as asynchronous jobs, poll job status and
// matches, and — for tables on the queue backend — external workers claim
// and answer the open HITs over the same API. This is the layer where
// service traffic lands: the engine below it already guarantees that
// resolutions are incremental (only new pairs are crowdsourced), that
// in-flight jobs are cancellable, and that simulated-backend runs are
// deterministic.
//
// API overview (all bodies JSON):
//
//	POST   /tables/{table}              create a session (schema + options)
//	GET    /tables                      list sessions
//	POST   /tables/{table}/records      append rows
//	POST   /tables/{table}/resolve      start an async delta resolution job
//	GET    /tables/{table}/jobs/{id}    poll job state and progress
//	DELETE /tables/{table}/jobs/{id}    cancel a running job
//	GET    /tables/{table}/matches      ranked matches of the last finished job
//	GET    /tables/{table}/hits         open HITs (queue backend)
//	POST   /tables/{table}/hits/claim   claim one assignment (worker API)
//	POST   /tables/{table}/hits/answer  answer a claimed assignment
//	POST   /claim                       claim across ALL tables (shared pool)
//	POST   /answer                      answer a cross-table claim
//	GET    /metrics                     per-tenant gauges and latency quantiles
//	GET    /debug/pprof/                runtime profiles
//	GET    /healthz                     liveness
//
// Multi-tenancy: every table belongs to a tenant (options.tenant,
// defaulting to the table name). Workers in a shared pool claim through
// POST /claim with no table in the path; the dispatcher picks the next
// assignment by deficit-round-robin across sessions weighted by
// options.priority, so one tenant's huge resolve cannot starve another's
// small delta. Per-tenant budgets (options.hit_rate / hit_burst)
// token-bucket HIT issuance, and resolve jobs pass a bounded admission
// queue (Options.MaxResolves concurrent server-wide, FIFO per tenant,
// round-robin across tenants) — jobs report state "queued" until
// admitted. Claims long-poll: both claim endpoints accept max_wait_ms
// and block until work arrives (wake-on-post) or the wait expires.
//
// Concurrency: resolution jobs run on their own goroutine once admitted.
// One job per table at a time (409 otherwise). The resolver's session
// lock is a read/write lock held exclusively only inside its short
// mutation windows, so worker endpoints render HIT content straight from
// the resolver's table — no row mirror — and stay responsive while a
// resolution is waiting on the crowd. The table registry is sharded with
// per-shard RWMutexes, so the claim/answer hot path never serializes on
// table creation.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/dispatch"
	"github.com/crowder/crowder/internal/record"
)

// Options configures the server.
type Options struct {
	// Lease is the claim lease for queue-backend tables (default 5m).
	Lease time.Duration
	// MaxResolves bounds how many resolve jobs run concurrently across
	// all tenants (default 4). Excess jobs queue FIFO per tenant with
	// round-robin admission across tenants.
	MaxResolves int
	// DataDir, when non-empty, makes every session durable: each table
	// logs its state mutations to a WAL (with periodic compacting
	// snapshots) under DataDir/<tenant>/<table>/, and Recover rebuilds
	// all sessions from disk at boot — a restart never loses a paid
	// verdict. Empty (the default) keeps sessions purely in memory.
	DataDir string
}

// Server is the crowderd HTTP handler.
type Server struct {
	opts       Options
	reg        *registry
	dispatcher *dispatch.Dispatcher
	admission  *dispatch.Admission
	start      time.Time
	mux        *http.ServeMux
	// createMu serializes table creation: the registry reservation and
	// the session's data-directory creation must agree on a winner.
	createMu sync.Mutex
}

// New creates an empty server.
func New(opts Options) *Server {
	if opts.Lease <= 0 {
		opts.Lease = 5 * time.Minute
	}
	if opts.MaxResolves <= 0 {
		opts.MaxResolves = 4
	}
	s := &Server{
		opts:       opts,
		reg:        newRegistry(),
		dispatcher: dispatch.NewDispatcher(),
		admission:  dispatch.NewAdmission(opts.MaxResolves),
		start:      time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /tables", s.handleListTables)
	mux.HandleFunc("POST /tables/{table}", s.handleCreateTable)
	mux.HandleFunc("POST /tables/{table}/records", s.withSession(handleAppend))
	mux.HandleFunc("POST /tables/{table}/resolve", s.withSession(s.handleResolve))
	mux.HandleFunc("GET /tables/{table}/jobs/{id}", s.withSession(handleJobStatus))
	mux.HandleFunc("DELETE /tables/{table}/jobs/{id}", s.withSession(handleJobCancel))
	mux.HandleFunc("GET /tables/{table}/matches", s.withSession(handleMatches))
	mux.HandleFunc("GET /tables/{table}/hits", s.withSession(handleOpenHITs))
	mux.HandleFunc("POST /tables/{table}/hits/claim", s.withSession(handleClaim))
	mux.HandleFunc("POST /tables/{table}/hits/answer", s.withSession(handleAnswer))
	mux.HandleFunc("POST /claim", s.handleGlobalClaim)
	mux.HandleFunc("POST /answer", s.handleGlobalAnswer)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SweepQueues expires lapsed claims on every queue-backend table so
// lifecycle managers hear about expiries even with no worker traffic,
// and drops the dispatcher's routes for tokens that lapsed unanswered.
// crowderd calls this on a ticker.
func (s *Server) SweepQueues() {
	for _, sess := range s.reg.all() {
		if sess.queue != nil {
			sess.queue.Sweep()
		}
	}
	s.dispatcher.PurgeTokens()
}

// session is one table's long-lived resolution state.
type session struct {
	name   string
	tenant string
	rv     *crowder.Resolver
	queue  *crowder.QueueBackend // nil for the simulated backend

	// current is the running job, observed lock-free by the engine's
	// progress callback (which fires while the resolver lock is held).
	current atomic.Pointer[job]

	// aggregation, transitivity and hybrid echo the session's fixed
	// options in job status, so a client auditing a verdict can see which
	// aggregator produced it without holding the resolver lock.
	aggregation  string
	transitivity bool
	hybrid       bool

	mu       sync.Mutex
	schema   []string
	jobs     map[int]*job
	jobOrder []int // job IDs oldest-first, for bounded retention
	nextJob  int
	last     *crowder.Result // last successfully completed resolution
	running  bool
}

// maxRetainedJobs bounds the finished-job history kept per table: each
// done job retains its full Result (including the ranked match list), so
// a daemon absorbing jobs for hours must not keep them all. The running
// job is never evicted.
const maxRetainedJobs = 50

// pruneJobsLocked evicts the oldest finished jobs beyond the retention
// cap; the caller holds sess.mu.
func (sess *session) pruneJobsLocked() {
	for len(sess.jobOrder) > maxRetainedJobs {
		evicted := false
		for i, id := range sess.jobOrder {
			j := sess.jobs[id]
			j.mu.Lock()
			done := j.state != "running" && j.state != "queued"
			j.mu.Unlock()
			if done {
				delete(sess.jobs, id)
				sess.jobOrder = append(sess.jobOrder[:i], sess.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// finishJob publishes a job's terminal state. The session is released
// (and a successful result installed) under sess.mu before j.mu lets a
// poller see the state, in the order pruneJobsLocked takes the two locks:
// a client that has seen "done" or "cancelled" can resolve again at once
// and reads the new matches.
func (sess *session) finishJob(j *job, res *crowder.Result, workers []crowder.WorkerStat, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	sess.running = false
	switch {
	case err == nil:
		sess.last = res
		j.state = "done"
		j.result = res
		j.workers = workers
	case errors.Is(err, context.Canceled):
		j.state = "cancelled"
		j.errMsg = err.Error()
	default:
		j.state = "failed"
		j.errMsg = err.Error()
	}
}

// job is one asynchronous delta resolution.
type job struct {
	id int

	mu       sync.Mutex
	state    string // "queued", "running", "done", "failed", "cancelled"
	progress crowder.Progress
	// admissionWait is how long the job sat in the admission queue
	// before it was allowed to run — the back-pressure a busy server
	// applies to new resolves, echoed in job status.
	admissionWait time.Duration
	interim       int // matches ≥ 0.5 in the latest interim aggregation
	result        *crowder.Result
	// workers is the per-worker accuracy/coverage report computed when
	// the job completes (the resolver lock is free by then) — the
	// session-wide diagnostic a dashboard reads to spot spammers and
	// statistically unanchored single-class workers.
	workers []crowder.WorkerStat
	errMsg  string
	cancel  context.CancelFunc
}

func (j *job) update(p crowder.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = p
	if p.Interim != nil {
		n := 0
		for _, prob := range p.Interim {
			if prob >= 0.5 {
				n++
			}
		}
		j.interim = n
	}
}

// tableRequest is the POST /tables/{table} body.
type tableRequest struct {
	Schema  []string       `json:"schema"`
	Options optionsRequest `json:"options"`
}

// optionsRequest is the JSON form of crowder.Options accepted by the API.
type optionsRequest struct {
	Threshold    float64  `json:"threshold,omitempty"`
	HITType      string   `json:"hit_type,omitempty"` // "cluster" (default) or "pair"
	ClusterSize  int      `json:"cluster_size,omitempty"`
	Assignments  int      `json:"assignments,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
	Workers      int      `json:"workers,omitempty"`
	SpammerRate  float64  `json:"spammer_rate,omitempty"`
	MachineOnly  bool     `json:"machine_only,omitempty"`
	Parallelism  int      `json:"parallelism,omitempty"`
	Backend      string   `json:"backend,omitempty"` // "simulated" (default) or "queue"
	Oracle       [][2]int `json:"oracle,omitempty"`
	Interim      bool     `json:"interim,omitempty"`
	LeaseSeconds int      `json:"lease_seconds,omitempty"`
	// Transitivity enables the adaptive deduce-instead-of-ask scheduler
	// (crowder.TransitivityOn): fewer HITs posted, savings reported on
	// every finished job as deduced_pairs / hits_saved / retracted_hits.
	Transitivity bool `json:"transitivity,omitempty"`
	// Aggregation selects the answer aggregator: "dawid-skene" (the
	// default), "majority-vote", or "dawid-skene-map" (the
	// sparse-coverage-robust MAP estimator). Fixed for the session; job
	// status echoes it under options.aggregation.
	Aggregation string `json:"aggregation,omitempty"`
	// Tenant names the owning tenant (default: the table name).
	// Fairness, budgets and admission are all per tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority is the table's deficit-round-robin weight on the shared
	// claim plane (default 1, min 1): how many consecutive assignments
	// the table may serve per dispatcher rotation.
	Priority int `json:"priority,omitempty"`
	// HITRate caps the tenant's HIT issuance in HITs/second (0 =
	// unlimited). An over-budget resolve slows to its paid rate instead
	// of flooding the shared pool.
	HITRate float64 `json:"hit_rate,omitempty"`
	// HITBurst is the token-bucket burst for HITRate (default 1).
	HITBurst int `json:"hit_burst,omitempty"`
	// Hybrid enables the learning router (crowder.HybridOn): a classifier
	// trained online from the session's own verdicts resolves confident
	// pairs by machine and sends only the uncertain band to the crowd.
	// Machine/crowd/deduced splits surface on job status and /metrics.
	Hybrid bool `json:"hybrid,omitempty"`
	// HybridRisk is the router's per-side training-margin risk quantile
	// (default crowder default; 0 means default).
	HybridRisk float64 `json:"hybrid_risk,omitempty"`
	// HybridMinLabels is the training floor before the router activates.
	HybridMinLabels int `json:"hybrid_min_labels,omitempty"`
	// HybridBudgetDollars caps per-delta crowd spend: the router widens
	// its machine band until the projected crowd cost of the uncertain
	// remainder fits what is left of the budget.
	HybridBudgetDollars float64 `json:"hybrid_budget_dollars,omitempty"`
}

// meteredBackend debits the tenant's token bucket before each HIT
// posting reaches workers. Waiting happens inside the posting resolve's
// own goroutine with that job's context, so an over-budget tenant slows
// itself down and nobody else. Retract must forward for the lifecycle
// manager's end-of-run cleanup to reach the queue.
type meteredBackend struct {
	q      *crowder.QueueBackend
	bucket *dispatch.Bucket
}

func (m *meteredBackend) Post(ctx context.Context, hits []crowder.HIT) error {
	if err := m.bucket.Wait(ctx, len(hits)); err != nil {
		return err
	}
	return m.q.Post(ctx, hits)
}

func (m *meteredBackend) Collect(ctx context.Context) <-chan crowder.Assignment {
	return m.q.Collect(ctx)
}

func (m *meteredBackend) Retract(ids []int) { m.q.Retract(ids) }

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("table")
	var req tableRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if len(req.Schema) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("schema is required"))
		return
	}
	opts, err := optionsFromRequest(req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tenant := req.Options.Tenant
	if tenant == "" {
		tenant = name
	}

	s.createMu.Lock()
	defer s.createMu.Unlock()
	if s.reg.get(name) != nil {
		writeError(w, http.StatusConflict, fmt.Errorf("table %q already exists", name))
		return
	}

	st, err := s.openSessionStore(name, tenant, req)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errStaleSessionDir) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}

	sess, err := s.buildSession(name, tenant, req, opts, st, nil)
	if err != nil {
		s.discardSessionStore(name, tenant, st)
		writeError(w, http.StatusBadRequest, err)
		return
	}

	if !s.reg.put(name, sess) {
		s.discardSessionStore(name, tenant, st)
		writeError(w, http.StatusConflict, fmt.Errorf("table %q already exists", name))
		return
	}
	if sess.queue != nil {
		// Join the shared claim plane. The name was just reserved in the
		// registry, so registration cannot collide.
		if err := s.dispatcher.Register(dispatch.Session{
			Tenant: tenant,
			Table:  name,
			Queue:  sess.queue,
			Weight: req.Options.Priority,
		}); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusCreated, map[string]any{"table": name, "schema": req.Schema, "tenant": tenant})
}

func (s *Server) handleListTables(w http.ResponseWriter, r *http.Request) {
	names := s.reg.names()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"tables": names})
}

// withSession resolves the {table} path segment to its session.
func (s *Server) withSession(h func(*session, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("table")
		sess := s.reg.get(name)
		if sess == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
			return
		}
		h(sess, w, r)
	}
}

func handleAppend(sess *session, w http.ResponseWriter, r *http.Request) {
	var req struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("rows is required"))
		return
	}
	// AppendBatch assigns IDs under the resolver's write lock, so the
	// rows are fully visible to HIT rendering (which reads under the
	// shared lock) before the first ID is returned — no mirror needed.
	first := sess.rv.AppendBatch(req.Rows...)
	writeJSON(w, http.StatusOK, map[string]any{"first_id": first, "count": len(req.Rows)})
}

func (s *Server) handleResolve(sess *session, w http.ResponseWriter, r *http.Request) {
	sess.mu.Lock()
	if sess.running {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, errors.New("a resolution job is already running for this table"))
		return
	}
	sess.nextJob++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{id: sess.nextJob, state: "queued", cancel: cancel}
	sess.jobs[j.id] = j
	sess.jobOrder = append(sess.jobOrder, j.id)
	sess.pruneJobsLocked()
	sess.running = true
	sess.mu.Unlock()

	go func() {
		// Admission: at most Options.MaxResolves jobs run concurrently
		// server-wide; a busy server queues this job (FIFO within the
		// tenant, round-robin across tenants) instead of oversubscribing
		// the worker pool. Cancellation works while queued.
		release, waited, aerr := s.admission.Acquire(ctx, sess.tenant)
		if aerr != nil {
			cancel()
			sess.finishJob(j, nil, nil, aerr)
			return
		}
		defer release()
		j.mu.Lock()
		j.state = "running"
		j.admissionWait = waited
		j.mu.Unlock()
		sess.current.Store(j)

		res, err := sess.rv.ResolveDeltaContext(ctx)
		cancel()
		sess.current.Store(nil)
		var workers []crowder.WorkerStat
		if err == nil {
			// Computed after the delta releases the resolver lock; the
			// job is still "running" to pollers, so the stats land before
			// anyone can observe "done".
			workers = sess.rv.WorkerStats()
		}
		sess.finishJob(j, res, workers, err)
	}()
	writeJSON(w, http.StatusAccepted, map[string]any{"job": j.id})
}

func findJob(sess *session, r *http.Request) (*job, error) {
	var id int
	if _, err := fmt.Sscanf(r.PathValue("id"), "%d", &id); err != nil {
		return nil, fmt.Errorf("bad job id %q", r.PathValue("id"))
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	j := sess.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("no job %d", id)
	}
	return j, nil
}

func handleJobStatus(sess *session, w http.ResponseWriter, r *http.Request) {
	j, err := findJob(sess, r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	body := map[string]any{
		"job":   j.id,
		"state": j.state,
		"options": map[string]any{
			"aggregation":  sess.aggregation,
			"transitivity": sess.transitivity,
			"hybrid":       sess.hybrid,
		},
		"progress": map[string]any{
			"total_hits":      j.progress.TotalHITs,
			"completed_hits":  j.progress.CompletedHITs,
			"answers":         j.progress.Answers,
			"top_ups":         j.progress.TopUps,
			"retracted":       j.progress.Retracted,
			"interim_matches": j.interim,
		},
		"admission_wait_ms": float64(j.admissionWait) / float64(time.Millisecond),
	}
	if j.errMsg != "" {
		body["error"] = j.errMsg
	}
	if j.result != nil {
		body["result"] = map[string]any{
			"total_pairs":       j.result.TotalPairs,
			"candidates":        j.result.Candidates,
			"new_candidates":    j.result.NewCandidates,
			"cached_candidates": j.result.CachedCandidates,
			"hits":              j.result.HITs,
			"machine_pairs":     j.result.MachinePairs,
			"deduced_pairs":     j.result.DeducedPairs,
			"hits_saved":        j.result.HITsSaved,
			"retracted_hits":    j.result.RetractedHITs,
			"cost_dollars":      j.result.CostDollars,
			"elapsed_seconds":   j.result.ElapsedSeconds,
			"matches":           len(j.result.Matches),
		}
		workers := make([]map[string]any, 0, len(j.workers))
		for _, ws := range j.workers {
			workers = append(workers, map[string]any{
				"worker":           ws.Worker,
				"accuracy":         ws.Accuracy,
				"answers":          ws.Answers,
				"matches_seen":     ws.MatchesSeen,
				"non_matches_seen": ws.NonMatchesSeen,
				"classes_seen":     ws.ClassesSeen,
			})
		}
		body["workers"] = workers
	}
	writeJSON(w, http.StatusOK, body)
}

func handleJobCancel(sess *session, w http.ResponseWriter, r *http.Request) {
	j, err := findJob(sess, r)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	j.mu.Lock()
	state := j.state
	cancel := j.cancel
	j.mu.Unlock()
	if state != "running" && state != "queued" {
		// Cancelling a finished job is a no-op; saying "cancelling" would
		// send pollers waiting for state "cancelled" into a spin.
		writeJSON(w, http.StatusConflict, map[string]any{"job": j.id, "state": state})
		return
	}
	cancel()
	writeJSON(w, http.StatusOK, map[string]any{"job": j.id, "cancelling": true})
}

type matchJSON struct {
	A          int     `json:"a"`
	B          int     `json:"b"`
	Confidence float64 `json:"confidence"`
}

func handleMatches(sess *session, w http.ResponseWriter, r *http.Request) {
	min := 0.0
	if q := r.URL.Query().Get("min"); q != "" {
		// The whole value must be a number: "0.9abc" is not 0.9, and NaN
		// would filter every row out.
		var err error
		if min, err = strconv.ParseFloat(q, 64); err != nil || math.IsNaN(min) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad min %q", q))
			return
		}
	}
	sess.mu.Lock()
	last := sess.last
	sess.mu.Unlock()
	if last == nil {
		writeError(w, http.StatusNotFound, errors.New("no completed resolution yet"))
		return
	}
	ms := []matchJSON{} // an empty result encodes as [], never null
	for _, m := range last.Matches {
		if m.Confidence >= min {
			ms = append(ms, matchJSON{A: m.Pair.A, B: m.Pair.B, Confidence: m.Confidence})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"matches": ms, "total": len(ms)})
}

// hitJSON renders a HIT with enough content for a worker to judge it.
type hitJSON struct {
	ID      int          `json:"id"`
	Kind    string       `json:"kind"`
	Open    int          `json:"open,omitempty"`
	Pairs   []pairJSON   `json:"pairs"`
	Records []recordJSON `json:"records,omitempty"`
}

type pairJSON struct {
	A     int      `json:"a"`
	B     int      `json:"b"`
	Left  []string `json:"left,omitempty"`
	Right []string `json:"right,omitempty"`
}

type recordJSON struct {
	ID     int      `json:"id"`
	Values []string `json:"values"`
}

// row reads a record's values from the resolver's table. Resolver reads
// take the session lock shared, so this works mid-resolve: a resolution
// waiting on the crowd holds no lock at all.
func (sess *session) row(id int) []string {
	return sess.rv.Record(id)
}

func (sess *session) renderHIT(h crowder.HIT, open int) hitJSON {
	out := hitJSON{ID: h.ID, Open: open}
	if h.Kind == crowder.ClusterKind {
		out.Kind = "cluster"
		for _, id := range h.Records {
			out.Records = append(out.Records, recordJSON{ID: int(id), Values: sess.row(int(id))})
		}
	} else {
		out.Kind = "pair"
	}
	for _, p := range h.Pairs {
		out.Pairs = append(out.Pairs, pairJSON{
			A: int(p.A), B: int(p.B),
			Left: sess.row(int(p.A)), Right: sess.row(int(p.B)),
		})
	}
	return out
}

func requireQueue(sess *session, w http.ResponseWriter) bool {
	if sess.queue == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("table %q uses the simulated backend; it has no worker-facing HITs", sess.name))
		return false
	}
	return true
}

func handleOpenHITs(sess *session, w http.ResponseWriter, r *http.Request) {
	if !requireQueue(sess, w) {
		return
	}
	var hits []hitJSON
	for _, oh := range sess.queue.Open() {
		hits = append(hits, sess.renderHIT(oh.HIT, oh.Open))
	}
	writeJSON(w, http.StatusOK, map[string]any{"hits": hits, "total": len(hits)})
}

// claimRequest is the body of both claim endpoints. MaxWaitMs turns the
// claim into a long-poll: the request blocks until an assignment opens
// (wake-on-post), the wait expires, or the client goes away. maxClaimWait
// caps it so a dead client cannot pin a handler goroutine for hours.
type claimRequest struct {
	Worker    string `json:"worker"`
	MaxWaitMs int    `json:"max_wait_ms,omitempty"`
}

const maxClaimWait = 60 * time.Second

func (cr claimRequest) wait() time.Duration {
	d := time.Duration(cr.MaxWaitMs) * time.Millisecond
	if d > maxClaimWait {
		d = maxClaimWait
	}
	return d
}

func handleClaim(sess *session, w http.ResponseWriter, r *http.Request) {
	if !requireQueue(sess, w) {
		return
	}
	var req claimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, errors.New("worker is required"))
		return
	}
	c, ok, err := sess.queue.ClaimWait(r.Context(), req.Worker, req.wait())
	if err != nil {
		// The client hung up mid-wait; nobody is reading the response.
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no open HITs"))
		return
	}
	body := map[string]any{"token": c.Token, "hit": sess.renderHIT(c.HIT, 0)}
	if !c.Deadline.IsZero() {
		body["deadline"] = c.Deadline.Format(time.RFC3339)
	}
	writeJSON(w, http.StatusOK, body)
}

// handleGlobalClaim is the shared-pool worker API: claim the next
// assignment across every table, chosen by weighted deficit-round-robin
// over sessions — the endpoint a multi-tenant worker pool drains.
func (s *Server) handleGlobalClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, errors.New("worker is required"))
		return
	}
	c, from, ok, err := s.dispatcher.Claim(r.Context(), req.Worker, req.wait())
	if err != nil {
		return // client hung up mid-wait
	}
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no open HITs"))
		return
	}
	sess := s.reg.get(from.Table)
	if sess == nil {
		// Unreachable: sessions are never removed. Guard anyway.
		writeError(w, http.StatusInternalServerError, fmt.Errorf("claimed from unknown table %q", from.Table))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"token":     c.Token,
		"table":     from.Table,
		"tenant":    from.Tenant,
		"hit":       sess.renderHIT(c.HIT, 0),
		"deadline":  deadlineJSON(c.Deadline),
		"waited_ms": float64(c.Waited) / float64(time.Millisecond),
	})
}

func deadlineJSON(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339)
}

// handleGlobalAnswer answers a cross-table claim: the token routes to
// the session that issued it, so the worker needs no table name.
func (s *Server) handleGlobalAnswer(w http.ResponseWriter, r *http.Request) {
	var req answerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	from, err := s.dispatcher.Answer(req.Token, req.verdicts())
	if err != nil {
		writeError(w, answerStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "table": from.Table, "tenant": from.Tenant})
}

// tenantMetrics is one tenant's rollup in the /metrics response.
type tenantMetrics struct {
	Tenant          string `json:"tenant"`
	Tables          int    `json:"tables"`
	Claims          int64  `json:"claims"`
	Answers         int64  `json:"answers"`
	OpenHITs        int    `json:"open_hits"`
	OpenAssignments int    `json:"open_assignments"`
	// Worst-table quantiles: conservative for a tenant with many tables,
	// exact for the common one-table tenant.
	ClaimWaitP50Ms float64 `json:"claim_wait_p50_ms"`
	ClaimWaitP99Ms float64 `json:"claim_wait_p99_ms"`
}

// resolutionMetrics is one table's hybrid-router rollup in /metrics:
// how the session's judged pairs split across machine, crowd and
// transitive deduction, and the router's current band — the numbers an
// operator watches to confirm crowd cost is actually falling over the
// session's lifetime.
type resolutionMetrics struct {
	Table         string  `json:"table"`
	Tenant        string  `json:"tenant"`
	Hybrid        bool    `json:"hybrid"`
	MachinePairs  int     `json:"machine_pairs"`
	CrowdPairs    int     `json:"crowd_pairs"`
	DeducedPairs  int     `json:"deduced_pairs"`
	TrainingPos   int     `json:"training_pos"`
	TrainingNeg   int     `json:"training_neg"`
	RouterReady   bool    `json:"router_ready"`
	BandLo        float64 `json:"band_lo"`
	BandHi        float64 `json:"band_hi"`
	Risk          float64 `json:"risk"`
	SpentDollars  float64 `json:"spent_dollars"`
	BudgetDollars float64 `json:"budget_dollars"`
}

// handleMetrics serves the numbers the tenant bench gates on and an
// operator dashboard graphs: per-session and per-tenant open HITs,
// queue depths, claim-wait quantiles, admission-queue pressure, and
// each table's machine/crowd/deduced resolution split.
// One source of truth — the bench reads the same gauges operators do.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sessions := s.dispatcher.Stats()
	byTenant := make(map[string]*tenantMetrics)
	var order []string
	for _, st := range sessions {
		tm := byTenant[st.Tenant]
		if tm == nil {
			tm = &tenantMetrics{Tenant: st.Tenant}
			byTenant[st.Tenant] = tm
			order = append(order, st.Tenant)
		}
		tm.Tables++
		tm.Claims += st.Claims
		tm.Answers += st.Answers
		tm.OpenHITs += st.OpenHITs
		tm.OpenAssignments += st.OpenAssignments
		if st.ClaimWaitP50Ms > tm.ClaimWaitP50Ms {
			tm.ClaimWaitP50Ms = st.ClaimWaitP50Ms
		}
		if st.ClaimWaitP99Ms > tm.ClaimWaitP99Ms {
			tm.ClaimWaitP99Ms = st.ClaimWaitP99Ms
		}
	}
	sort.Strings(order)
	tenants := make([]tenantMetrics, 0, len(order))
	for _, t := range order {
		tenants = append(tenants, *byTenant[t])
	}
	all := s.reg.all()
	resolution := make([]resolutionMetrics, 0, len(all))
	for _, sess := range all {
		hs := sess.rv.HybridStats()
		resolution = append(resolution, resolutionMetrics{
			Table:         sess.name,
			Tenant:        sess.tenant,
			Hybrid:        hs.Enabled,
			MachinePairs:  hs.MachinePairs,
			CrowdPairs:    hs.CrowdPairs,
			DeducedPairs:  hs.DeducedPairs,
			TrainingPos:   hs.TrainingPos,
			TrainingNeg:   hs.TrainingNeg,
			RouterReady:   hs.Ready,
			BandLo:        hs.BandLo,
			BandHi:        hs.BandHi,
			Risk:          hs.Risk,
			SpentDollars:  hs.SpentDollars,
			BudgetDollars: hs.BudgetDollars,
		})
	}
	sort.Slice(resolution, func(a, b int) bool { return resolution[a].Table < resolution[b].Table })
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"goroutines":     runtime.NumGoroutine(),
		"tables":         len(sessions),
		"sessions":       sessions,
		"tenants":        tenants,
		"resolution":     resolution,
		"admission":      s.admission.Stats(),
	})
}

// answerRequest is the body of both answer endpoints.
type answerRequest struct {
	Token   string `json:"token"`
	Answers []struct {
		A     int  `json:"a"`
		B     int  `json:"b"`
		Match bool `json:"match"`
	} `json:"answers"`
}

func (ar answerRequest) verdicts() []crowder.Verdict {
	verdicts := make([]crowder.Verdict, len(ar.Answers))
	for i, a := range ar.Answers {
		verdicts[i] = crowder.Verdict{A: record.ID(a.A), B: record.ID(a.B), Match: a.Match}
	}
	return verdicts
}

func handleAnswer(sess *session, w http.ResponseWriter, r *http.Request) {
	if !requireQueue(sess, w) {
		return
	}
	var req answerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding body: %w", err))
		return
	}
	if err := sess.queue.Answer(req.Token, req.verdicts()); err != nil {
		writeError(w, answerStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// answerStatus maps a refused answer to its HTTP status: 503 when the
// answer was valid but could not be made durable, 400 otherwise.
func answerStatus(err error) int {
	if errors.Is(err, crowd.ErrNotDurable) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
