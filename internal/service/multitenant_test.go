package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
)

// globalClaimResponse is the POST /claim body workers read.
type globalClaimResponse struct {
	Token    string  `json:"token"`
	Table    string  `json:"table"`
	Tenant   string  `json:"tenant"`
	HIT      hitJSON `json:"hit"`
	WaitedMs float64 `json:"waited_ms"`
}

// startQueueResolve creates a queue-backend table, appends rows and
// kicks a resolve, returning the job ID.
func startQueueResolve(t *testing.T, c *http.Client, base, table string, opts optionsRequest, schema []string, rows [][]string) int {
	t.Helper()
	if code := call(t, c, "POST", base+"/tables/"+table, tableRequest{Schema: schema, Options: opts}, nil); code != http.StatusCreated {
		t.Fatalf("create %s returned %d", table, code)
	}
	if code := call(t, c, "POST", base+"/tables/"+table+"/records",
		map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append to %s returned %d", table, code)
	}
	var kicked struct {
		Job int `json:"job"`
	}
	if code := call(t, c, "POST", base+"/tables/"+table+"/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("resolve on %s returned %d", table, code)
	}
	return kicked.Job
}

// TestClaimsProceedDuringTableCreation is the Server.mu regression test:
// with the old single server mutex, a table creation in flight blocked
// every claim. Now the registry is sharded — we hold the write lock of
// every shard except the served table's (a creation stuck in any other
// shard) and claims on both the per-table and the cross-table endpoint
// must still complete.
func TestClaimsProceedDuringTableCreation(t *testing.T) {
	schema, rows, _, _ := serviceDataset(t)
	s := New(Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := srv.Client()

	job := startQueueResolve(t, c, srv.URL, "t1", optionsRequest{
		Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7, Backend: "queue",
	}, schema, rows)
	_ = job
	// Wait for the resolve to post its HITs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var body struct {
			Total int `json:"total"`
		}
		call(t, c, "GET", srv.URL+"/tables/t1/hits", nil, &body)
		if body.Total > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resolve never posted HITs")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Simulate stuck creations in every other shard.
	mine := s.reg.shardOf("t1")
	for i := range s.reg.shards {
		if sh := &s.reg.shards[i]; sh != mine {
			sh.mu.Lock()
			defer sh.mu.Unlock()
		}
	}

	type result struct {
		code  int
		claim globalClaimResponse
	}
	results := make(chan result, 2)
	go func() {
		var cl globalClaimResponse
		code := call(t, c, "POST", srv.URL+"/claim", map[string]any{"worker": "global-w"}, &cl)
		results <- result{code, cl}
	}()
	go func() {
		var cl globalClaimResponse
		code := call(t, c, "POST", srv.URL+"/tables/t1/hits/claim", map[string]any{"worker": "table-w"}, &cl)
		results <- result{code, cl}
	}()
	for i := 0; i < 2; i++ {
		select {
		case res := <-results:
			if res.code != http.StatusOK {
				t.Fatalf("claim returned %d while creations held other shards", res.code)
			}
			if res.claim.Token == "" {
				t.Fatal("claim returned no token")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("claim blocked behind a table creation in another shard")
		}
	}
}

// TestGlobalClaimAnswerRoundTrip drains two tenants' resolves through
// the shared-pool endpoints only, then checks the answers landed on the
// right tables and /metrics reports the traffic per tenant.
func TestGlobalClaimAnswerRoundTrip(t *testing.T) {
	schema, rows, _, _ := serviceDataset(t)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	c := srv.Client()

	truth := record.NewPairSet()
	d := dataset.RestaurantN(4, 80, 15)
	for _, p := range d.Matches.Slice() {
		truth.Add(p.A, p.B)
	}

	jobs := map[string]int{}
	for i, table := range []string{"a", "b"} {
		jobs[table] = startQueueResolve(t, c, srv.URL, table, optionsRequest{
			Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7,
			Backend: "queue", Tenant: "tenant-" + table, Priority: 1 + i,
		}, schema, rows)
	}

	var done atomic.Bool
	acks := map[string]*atomic.Int64{"a": {}, "b": {}}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !done.Load() {
				var cl globalClaimResponse
				code := call(t, c, "POST", srv.URL+"/claim",
					map[string]any{"worker": fmt.Sprintf("w%d", w), "max_wait_ms": 100}, &cl)
				if code != http.StatusOK {
					continue
				}
				if cl.Table != "a" && cl.Table != "b" {
					t.Errorf("claim came from unknown table %q", cl.Table)
					return
				}
				var answers []map[string]any
				for _, p := range cl.HIT.Pairs {
					if len(p.Left) == 0 || len(p.Right) == 0 {
						t.Errorf("global claim rendered pair (%d,%d) without record values", p.A, p.B)
					}
					answers = append(answers, map[string]any{
						"a": p.A, "b": p.B, "match": truth.Has(record.ID(p.A), record.ID(p.B)),
					})
				}
				var ack struct {
					Table string `json:"table"`
				}
				if code := call(t, c, "POST", srv.URL+"/answer",
					map[string]any{"token": cl.Token, "answers": answers}, &ack); code == http.StatusOK {
					if ack.Table != cl.Table {
						t.Errorf("answer landed on %q; claimed from %q", ack.Table, cl.Table)
					}
					acks[cl.Table].Add(1)
				}
			}
		}(w)
	}

	paid := map[string]int64{}
	for table, id := range jobs {
		status := pollJob(t, c, srv.URL, table, id)
		if status["state"] != "done" {
			t.Fatalf("table %s job ended %v: %v", table, status["state"], status["error"])
		}
		res := status["result"].(map[string]any)
		paid[table] = int64(res["hits"].(float64)) * 3
	}
	done.Store(true)
	wg.Wait()

	for table, n := range paid {
		if got := acks[table].Load(); got != n {
			t.Errorf("table %s: %d answers acked, job consumed %d assignments", table, got, n)
		}
	}

	// Both tenants' accepted matches are truthful (and identical input ⇒
	// identical truth subset); no verdicts leaked across tables.
	for _, table := range []string{"a", "b"} {
		for _, m := range getMatches(t, c, srv.URL, table) {
			if m.Confidence >= 0.5 && !truth.Has(record.ID(m.A), record.ID(m.B)) {
				t.Errorf("table %s accepted untrue pair (%d,%d)", table, m.A, m.B)
			}
		}
	}

	var metrics struct {
		Tables  int `json:"tables"`
		Tenants []struct {
			Tenant  string `json:"tenant"`
			Claims  int64  `json:"claims"`
			Answers int64  `json:"answers"`
		} `json:"tenants"`
		Admission struct {
			Slots int `json:"slots"`
		} `json:"admission"`
	}
	if code := call(t, c, "GET", srv.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	if metrics.Tables != 2 || len(metrics.Tenants) != 2 {
		t.Fatalf("metrics reported %d tables / %d tenants; want 2/2", metrics.Tables, len(metrics.Tenants))
	}
	for _, tm := range metrics.Tenants {
		if tm.Claims == 0 || tm.Answers == 0 {
			t.Errorf("tenant %s shows no traffic in /metrics: %+v", tm.Tenant, tm)
		}
	}
	if metrics.Admission.Slots == 0 {
		t.Error("metrics reported no admission slots")
	}

	// pprof is mounted.
	if code := call(t, c, "GET", srv.URL+"/debug/pprof/cmdline", nil, nil); code != http.StatusOK {
		t.Errorf("pprof returned %d", code)
	}
}

// TestResolveAdmissionQueue: with one resolve slot, a second tenant's
// job reports "queued", can be cancelled while queued, and admission
// pressure shows up in /metrics; freeing the slot lets a queued job run.
func TestResolveAdmissionQueue(t *testing.T) {
	schema, rows, oracle, _ := serviceDataset(t)
	srv := httptest.NewServer(New(Options{MaxResolves: 1}))
	defer srv.Close()
	c := srv.Client()

	// Tenant A: queue backend with no workers — holds its slot until
	// cancelled.
	jobA := startQueueResolve(t, c, srv.URL, "a", optionsRequest{
		Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7, Backend: "queue",
	}, schema, rows)

	// Wait until A is actually running (admitted), not just accepted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var status map[string]any
		call(t, c, "GET", fmt.Sprintf("%s/tables/a/jobs/%d", srv.URL, jobA), nil, &status)
		if status["state"] == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job A never started running: %v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Tenant B: simulated backend; would finish instantly if admitted.
	if code := call(t, c, "POST", srv.URL+"/tables/b", tableRequest{
		Schema:  schema,
		Options: optionsRequest{Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7, Oracle: oracle},
	}, nil); code != http.StatusCreated {
		t.Fatalf("create b returned %d", code)
	}
	if code := call(t, c, "POST", srv.URL+"/tables/b/records",
		map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append b returned %d", code)
	}
	var kickedB struct {
		Job int `json:"job"`
	}
	if code := call(t, c, "POST", srv.URL+"/tables/b/resolve", map[string]any{}, &kickedB); code != http.StatusAccepted {
		t.Fatalf("resolve b returned %d", code)
	}
	var statusB map[string]any
	call(t, c, "GET", fmt.Sprintf("%s/tables/b/jobs/%d", srv.URL, kickedB.Job), nil, &statusB)
	if statusB["state"] != "queued" {
		t.Fatalf("job B state = %v with the slot held; want \"queued\"", statusB["state"])
	}

	var metrics struct {
		Admission struct {
			InUse  int `json:"in_use"`
			Queued int `json:"queued"`
		} `json:"admission"`
	}
	call(t, c, "GET", srv.URL+"/metrics", nil, &metrics)
	if metrics.Admission.InUse != 1 || metrics.Admission.Queued != 1 {
		t.Fatalf("admission = %+v; want in_use 1, queued 1", metrics.Admission)
	}

	// Cancel B while queued.
	if code := call(t, c, "DELETE", fmt.Sprintf("%s/tables/b/jobs/%d", srv.URL, kickedB.Job), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel of queued job returned %d", code)
	}
	if status := pollJob(t, c, srv.URL, "b", kickedB.Job); status["state"] != "cancelled" {
		t.Fatalf("queued job ended %v; want cancelled", status["state"])
	}

	// Cancel A, freeing the slot; a fresh B resolve then completes.
	if code := call(t, c, "DELETE", fmt.Sprintf("%s/tables/a/jobs/%d", srv.URL, jobA), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel of running job returned %d", code)
	}
	if status := pollJob(t, c, srv.URL, "a", jobA); status["state"] != "cancelled" {
		t.Fatalf("job A ended %v; want cancelled", status["state"])
	}
	var kickedB2 struct {
		Job int `json:"job"`
	}
	if code := call(t, c, "POST", srv.URL+"/tables/b/resolve", map[string]any{}, &kickedB2); code != http.StatusAccepted {
		t.Fatalf("second resolve b returned %d", code)
	}
	if status := pollJob(t, c, srv.URL, "b", kickedB2.Job); status["state"] != "done" {
		t.Fatalf("job B2 ended %v: %v", status["state"], status["error"])
	}
}

// TestMultiTenantStress is the shared-pool stress tier: several tenants
// resolve concurrently over several rounds while one worker pool drains
// them all through the cross-table claim plane, under -race in CI. It
// asserts no lost answers (per tenant, acked answers == assignments the
// jobs consumed), no cross-tenant verdict leakage (each tenant's
// accepted matches are a subset of that tenant's own truth), and that
// each tenant's match list equals its table resolved alone.
func TestMultiTenantStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		tenants = 3
		rounds  = 2
		workers = 8
	)
	srv := httptest.NewServer(New(Options{MaxResolves: 2}))
	defer srv.Close()
	c := srv.Client()

	type tenant struct {
		table  string
		schema []string
		opts   optionsRequest
		rows   [][]string
		truth  record.PairSet
		paid   atomic.Int64
	}
	ts := make([]*tenant, tenants)
	truth := map[string]record.PairSet{}
	for i := range ts {
		// Different sizes ⇒ different truths: a verdict leaking across
		// tenants shows up as an untrue accepted pair.
		d := dataset.RestaurantN(4, 60+30*i, 10+5*i)
		tn := &tenant{table: fmt.Sprintf("t%d", i), schema: d.Table.Schema, truth: d.Matches}
		tn.opts = optionsRequest{
			Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: int64(11 + i),
			Backend: "queue", Tenant: "tenant" + tn.table, Priority: 1 + i%2,
			// Majority vote keeps unanimous truthful answers exactly
			// truthful. The default Dawid–Skene can invert verdicts for
			// workers with sparse per-table coverage (see ROADMAP), and
			// a shared pool spread across tenants makes coverage sparse
			// by construction — that degeneracy would masquerade as
			// cross-tenant leakage here.
			Aggregation: "majority-vote",
		}
		for j := range d.Table.Records {
			tn.rows = append(tn.rows, d.Table.Records[j].Values)
		}
		ts[i] = tn
		truth[tn.table] = tn.truth
		if code := call(t, c, "POST", srv.URL+"/tables/"+tn.table,
			tableRequest{Schema: tn.schema, Options: tn.opts}, nil); code != http.StatusCreated {
			t.Fatalf("create %s returned %d", tn.table, code)
		}
	}

	// The shared pool: workers see all tenants through one endpoint.
	acked, stopPool := truthfulPool(t, c, srv.URL, workers, truth)

	// Each tenant drives its own append→resolve→poll rounds concurrently.
	var terr atomic.Bool
	var tenantWG sync.WaitGroup
	for _, tn := range ts {
		tenantWG.Add(1)
		go func(tn *tenant) {
			defer tenantWG.Done()
			batch := (len(tn.rows) + rounds - 1) / rounds
			for r := 0; r < rounds; r++ {
				lo, hi := r*batch, (r+1)*batch
				if hi > len(tn.rows) {
					hi = len(tn.rows)
				}
				if code := call(t, c, "POST", srv.URL+"/tables/"+tn.table+"/records",
					map[string]any{"rows": tn.rows[lo:hi]}, nil); code != http.StatusOK {
					t.Errorf("%s round %d append returned %d", tn.table, r, code)
					terr.Store(true)
					return
				}
				var kicked struct {
					Job int `json:"job"`
				}
				if code := call(t, c, "POST", srv.URL+"/tables/"+tn.table+"/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
					t.Errorf("%s round %d resolve returned %d", tn.table, r, code)
					terr.Store(true)
					return
				}
				status := pollJob(t, c, srv.URL, tn.table, kicked.Job)
				if status["state"] != "done" {
					t.Errorf("%s round %d job ended %v: %v", tn.table, r, status["state"], status["error"])
					terr.Store(true)
					return
				}
				res := status["result"].(map[string]any)
				tn.paid.Add(int64(res["hits"].(float64)) * 3)
			}
		}(tn)
	}
	tenantWG.Wait()
	stopPool()
	if terr.Load() {
		t.FailNow()
	}

	for _, tn := range ts {
		t.Run(tn.table, func(t *testing.T) {
			// No lost answers: each tenant's jobs consumed exactly the
			// assignments its acked answers delivered.
			if got := acked[tn.table].Load(); got != tn.paid.Load() {
				t.Errorf("%d answers acked, jobs consumed %d", got, tn.paid.Load())
			}
			// No cross-tenant leakage: truthful workers answered from THIS
			// tenant's truth, so an accepted pair outside it means another
			// tenant's verdicts bled in.
			shared := getMatches(t, c, srv.URL, tn.table)
			accepted := 0
			for _, m := range shared {
				if m.Confidence >= 0.5 {
					accepted++
					if !tn.truth.Has(record.ID(m.A), record.ID(m.B)) {
						t.Errorf("accepted pair (%d,%d) outside its own truth", m.A, m.B)
					}
				}
			}
			if accepted == 0 {
				t.Error("accepted no matches")
			}

			// Tenants share workers, never verdicts: the same table resolved
			// alone on a fresh server yields the identical match list.
			solo := httptest.NewServer(New(Options{}))
			defer solo.Close()
			sc := solo.Client()
			job := startQueueResolve(t, sc, solo.URL, tn.table, tn.opts, tn.schema, tn.rows)
			_, stopSolo := truthfulPool(t, sc, solo.URL, 3, map[string]record.PairSet{tn.table: tn.truth})
			status := pollJob(t, sc, solo.URL, tn.table, job)
			stopSolo()
			if status["state"] != "done" {
				t.Fatalf("alone: job ended %v: %v", status["state"], status["error"])
			}
			if alone := getMatches(t, sc, solo.URL, tn.table); !slices.Equal(shared, alone) {
				t.Errorf("%d matches under the shared pool differ from %d alone on a fresh server",
					len(shared), len(alone))
			}
		})
	}
}

// truthfulPool runs workers on base's shared claim plane until stop is
// called, answering every claimed pair from its table's truth. acked
// counts the answers the server accepted, per table.
func truthfulPool(t *testing.T, c *http.Client, base string, workers int, truth map[string]record.PairSet) (acked map[string]*atomic.Int64, stop func()) {
	acked = make(map[string]*atomic.Int64, len(truth))
	for table := range truth {
		acked[table] = new(atomic.Int64)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !done.Load() {
				var cl globalClaimResponse
				if call(t, c, "POST", base+"/claim",
					map[string]any{"worker": fmt.Sprintf("w%d", w), "max_wait_ms": 50}, &cl) != http.StatusOK {
					continue
				}
				tr := truth[cl.Table]
				if tr == nil {
					t.Errorf("claim from unknown table %q", cl.Table)
					return
				}
				var answers []map[string]any
				for _, p := range cl.HIT.Pairs {
					answers = append(answers, map[string]any{
						"a": p.A, "b": p.B, "match": tr.Has(record.ID(p.A), record.ID(p.B)),
					})
				}
				if call(t, c, "POST", base+"/answer",
					map[string]any{"token": cl.Token, "answers": answers}, nil) == http.StatusOK {
					acked[cl.Table].Add(1)
				}
			}
		}(w)
	}
	return acked, func() { done.Store(true); wg.Wait() }
}
