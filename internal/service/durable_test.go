package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/dispatch"
	"github.com/crowder/crowder/internal/record"
)

// resolveAndWait kicks a resolve over HTTP and polls it to completion,
// returning the finished job status.
func resolveAndWait(t *testing.T, c *http.Client, base, table string) map[string]any {
	t.Helper()
	var kicked struct {
		Job int `json:"job"`
	}
	if code := call(t, c, "POST", base+"/tables/"+table+"/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("resolve returned %d", code)
	}
	status := pollJob(t, c, base, table, kicked.Job)
	if status["state"] != "done" {
		t.Fatalf("job finished in state %v: %v", status["state"], status)
	}
	return status
}

func sortedMatches(ms []matchJSON) []matchJSON {
	out := append([]matchJSON(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TestServiceRejectsUnrunnableCrowdPool: crowd-pool options the
// simulator could never resolve with fail the create with a 400, and a
// durable server keeps no session directory for them.
func TestServiceRejectsUnrunnableCrowdPool(t *testing.T) {
	dataDir := t.TempDir()
	srv := httptest.NewServer(New(Options{DataDir: dataDir}))
	defer srv.Close()
	for _, tc := range []struct {
		table string
		opts  optionsRequest
	}{
		{"tiny-pool", optionsRequest{Workers: 2}},
		{"all-spammers", optionsRequest{SpammerRate: 5}},
	} {
		req := tableRequest{Schema: []string{"name"}, Options: tc.opts}
		if code := call(t, srv.Client(), "POST", srv.URL+"/tables/"+tc.table, req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: create returned %d; want 400", tc.table, code)
		}
		if _, err := os.Stat(sessionDir(dataDir, tc.table, tc.table)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: session directory left behind (stat: %v)", tc.table, err)
		}
	}
}

// TestServiceDurableSimulatedRecovery: a simulated-backend session
// created with -data-dir survives a server restart — Recover rebuilds it
// from the table's own persisted config, the pre-crash matches are still
// resolvable without paying for a single judged pair again, and the
// session continues bit-identically to a server that never went down.
// Creating the same table on a server that skipped Recover must refuse
// with 409 rather than silently shadowing the durable state.
func TestServiceDurableSimulatedRecovery(t *testing.T) {
	schema, rows, oracle, _ := serviceDataset(t)
	dataDir := t.TempDir()
	req := tableRequest{
		Schema: schema,
		Options: optionsRequest{
			Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7,
			Oracle: oracle,
		},
	}

	// Phase 1: first server, first delta.
	srv1 := httptest.NewServer(New(Options{DataDir: dataDir}))
	c := srv1.Client()
	if code := call(t, c, "POST", srv1.URL+"/tables/products", req, nil); code != http.StatusCreated {
		t.Fatalf("create table returned %d", code)
	}
	if code := call(t, c, "POST", srv1.URL+"/tables/products/records",
		map[string]any{"rows": rows[:60]}, nil); code != http.StatusOK {
		t.Fatalf("append returned %d", code)
	}
	resolveAndWait(t, c, srv1.URL, "products")
	preCrash := getMatches(t, c, srv1.URL, "products")
	// Crash: the server goes away without any graceful shutdown. Every
	// paid verdict was fsynced at its commit point.
	srv1.Close()

	// A server pointed at the same data dir that did NOT run Recover must
	// not let a new table trample the durable session.
	stale := httptest.NewServer(New(Options{DataDir: dataDir}))
	if code := call(t, stale.Client(), "POST", stale.URL+"/tables/products", req, nil); code != http.StatusConflict {
		t.Fatalf("create over durable state returned %d; want 409", code)
	}
	stale.Close()

	// Phase 2: restart, recover, continue with the second delta.
	s2 := New(Options{DataDir: dataDir})
	n, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Recover() = %d sessions; want 1", n)
	}
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	c2 := srv2.Client()

	var tables struct {
		Tables []string `json:"tables"`
	}
	if code := call(t, c2, "GET", srv2.URL+"/tables", nil, &tables); code != http.StatusOK {
		t.Fatalf("list tables returned %d", code)
	}
	if len(tables.Tables) != 1 || tables.Tables[0] != "products" {
		t.Fatalf("recovered tables = %v; want [products]", tables.Tables)
	}

	// A no-new-rows resolve must serve the pre-crash matches from the
	// recovered cache without issuing any HITs.
	status := resolveAndWait(t, c2, srv2.URL, "products")
	if res, ok := status["result"].(map[string]any); !ok || res["hits"].(float64) != 0 {
		t.Fatalf("recovered re-resolve paid for HITs: %v", status["result"])
	}
	if got := getMatches(t, c2, srv2.URL, "products"); len(got) != len(preCrash) {
		t.Fatalf("recovered matches = %d; want %d", len(got), len(preCrash))
	}

	if code := call(t, c2, "POST", srv2.URL+"/tables/products/records",
		map[string]any{"rows": rows[60:]}, nil); code != http.StatusOK {
		t.Fatalf("append after recovery returned %d", code)
	}
	resolveAndWait(t, c2, srv2.URL, "products")
	got := getMatches(t, c2, srv2.URL, "products")

	// Control: the same two deltas on a server that never restarted.
	ctl := httptest.NewServer(New(Options{}))
	defer ctl.Close()
	cc := ctl.Client()
	if code := call(t, cc, "POST", ctl.URL+"/tables/products", req, nil); code != http.StatusCreated {
		t.Fatalf("control create returned %d", code)
	}
	for _, batch := range [][][]string{rows[:60], rows[60:]} {
		if code := call(t, cc, "POST", ctl.URL+"/tables/products/records",
			map[string]any{"rows": batch}, nil); code != http.StatusOK {
			t.Fatalf("control append returned %d", code)
		}
		resolveAndWait(t, cc, ctl.URL, "products")
	}
	want := getMatches(t, cc, ctl.URL, "products")

	if len(got) != len(want) {
		t.Fatalf("recovered session found %d matches; control %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d differs after recovery: %+v vs control %+v", i, got[i], want[i])
		}
	}
}

// TestServiceDurableQueueRecovery: a queue-backend session is killed
// mid-resolve after real workers answered part of the posting. The
// restarted server recovers the open HITs and live answers, never
// re-serves a pair that was answered (and paid) before the crash, and
// the finished job's matches equal a run that never crashed.
func TestServiceDurableQueueRecovery(t *testing.T) {
	schema, rows, _, libOracle := serviceDataset(t)
	// all 80 rows, one pair per HIT: enough open HITs that the crash lands mid-flight
	truth := record.NewPairSet()
	for _, p := range libOracle {
		truth.Add(record.ID(p.A), record.ID(p.B))
	}
	dataDir := t.TempDir()
	// Majority vote with one truthful assignment per pair keeps the final
	// matches independent of which worker judged which pair, so the
	// crashed-and-recovered run is comparable to the control even though
	// the claim schedule differs across the crash boundary.
	req := tableRequest{
		Schema: schema,
		Options: optionsRequest{
			Threshold: 0.4, HITType: "pair", ClusterSize: 1, Seed: 7,
			Backend: "queue", Assignments: 1, Aggregation: "majority-vote",
		},
	}

	srv1 := httptest.NewServer(New(Options{DataDir: dataDir}))
	c := srv1.Client()
	if code := call(t, c, "POST", srv1.URL+"/tables/hotels", req, nil); code != http.StatusCreated {
		t.Fatalf("create table returned %d", code)
	}
	if code := call(t, c, "POST", srv1.URL+"/tables/hotels/records",
		map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append returned %d", code)
	}
	var kicked struct {
		Job int `json:"job"`
	}
	if code := call(t, c, "POST", srv1.URL+"/tables/hotels/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("resolve returned %d", code)
	}

	// Wait for the posting, then answer roughly half of it.
	openHITs := func(c *http.Client, base string) []hitJSON {
		var body struct {
			Hits []hitJSON `json:"hits"`
		}
		if code := call(t, c, "GET", base+"/tables/hotels/hits", nil, &body); code != http.StatusOK {
			t.Fatalf("open hits returned %d", code)
		}
		return body.Hits
	}
	var open []hitJSON
	deadline := time.Now().Add(10 * time.Second)
	for len(open) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("HITs never posted")
		}
		open = openHITs(c, srv1.URL)
		time.Sleep(time.Millisecond)
	}
	answered := make(map[[2]int]bool)
	for i := 0; i < (len(open)+1)/2; i++ {
		var claim struct {
			Token string  `json:"token"`
			HIT   hitJSON `json:"hit"`
		}
		if code := call(t, c, "POST", srv1.URL+"/tables/hotels/hits/claim",
			map[string]any{"worker": "w"}, &claim); code != http.StatusOK {
			t.Fatalf("claim %d returned %d", i, code)
		}
		var answers []map[string]any
		for _, p := range claim.HIT.Pairs {
			answers = append(answers, map[string]any{
				"a": p.A, "b": p.B,
				"match": truth.Has(record.ID(p.A), record.ID(p.B)),
			})
			answered[[2]int{p.A, p.B}] = true
		}
		if code := call(t, c, "POST", srv1.URL+"/tables/hotels/hits/answer",
			map[string]any{"token": claim.Token, "answers": answers}, nil); code != http.StatusOK {
			t.Fatalf("answer returned %d", code)
		}
	}
	if len(answered) == 0 {
		t.Fatal("nothing answered before the crash")
	}
	// Crash mid-resolve: the job is still blocked on the remaining HITs.
	// Every answer above was fsynced before its HTTP 200.
	srv1.Close()

	s2 := New(Options{DataDir: dataDir})
	n, err := s2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Recover() = %d sessions; want 1", n)
	}
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	c2 := srv2.Client()

	// The recovered posting is exactly the unanswered remainder.
	remaining := openHITs(c2, srv2.URL)
	if len(remaining) == 0 {
		t.Fatal("no open HITs recovered")
	}
	for _, h := range remaining {
		for _, p := range h.Pairs {
			if answered[[2]int{p.A, p.B}] {
				t.Fatalf("pair (%d,%d) was answered before the crash and re-posted after recovery", p.A, p.B)
			}
		}
	}

	// A fresh resolve adopts the in-flight HITs; draining what is left
	// must never surface a pre-crash pair.
	if code := call(t, c2, "POST", srv2.URL+"/tables/hotels/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("resolve after recovery returned %d", code)
	}
	jobDone := func() bool {
		var status map[string]any
		call(t, c2, "GET", fmt.Sprintf("%s/tables/hotels/jobs/%d", srv2.URL, kicked.Job), nil, &status)
		return status["state"] != "running" && status["state"] != "queued"
	}
	reclaimed := 0
	deadline = time.Now().Add(30 * time.Second)
	for !jobDone() {
		if time.Now().After(deadline) {
			t.Fatal("recovered queue never drained")
		}
		var claim struct {
			Token string  `json:"token"`
			HIT   hitJSON `json:"hit"`
		}
		if code := call(t, c2, "POST", srv2.URL+"/tables/hotels/hits/claim",
			map[string]any{"worker": "w"}, &claim); code != http.StatusOK {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		reclaimed++
		var answers []map[string]any
		for _, p := range claim.HIT.Pairs {
			if answered[[2]int{p.A, p.B}] {
				t.Fatalf("pair (%d,%d) was answered before the crash and re-claimed after recovery", p.A, p.B)
			}
			answers = append(answers, map[string]any{
				"a": p.A, "b": p.B,
				"match": truth.Has(record.ID(p.A), record.ID(p.B)),
			})
		}
		if code := call(t, c2, "POST", srv2.URL+"/tables/hotels/hits/answer",
			map[string]any{"token": claim.Token, "answers": answers}, nil); code != http.StatusOK {
			t.Fatalf("answer after recovery returned %d", code)
		}
	}
	if reclaimed == 0 {
		t.Fatal("nothing left to answer after recovery — crash was not mid-flight")
	}
	status := pollJob(t, c2, srv2.URL, "hotels", kicked.Job)
	if status["state"] != "done" {
		t.Fatalf("recovered job finished in state %v: %v", status["state"], status)
	}
	got := sortedMatches(getMatches(t, c2, srv2.URL, "hotels"))

	// Control: same table, never crashed, drained by the same worker.
	ctl := httptest.NewServer(New(Options{}))
	defer ctl.Close()
	cc := ctl.Client()
	if code := call(t, cc, "POST", ctl.URL+"/tables/hotels", req, nil); code != http.StatusCreated {
		t.Fatalf("control create returned %d", code)
	}
	if code := call(t, cc, "POST", ctl.URL+"/tables/hotels/records",
		map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("control append returned %d", code)
	}
	var ctlKicked struct {
		Job int `json:"job"`
	}
	if code := call(t, cc, "POST", ctl.URL+"/tables/hotels/resolve", map[string]any{}, &ctlKicked); code != http.StatusAccepted {
		t.Fatalf("control resolve returned %d", code)
	}
	ctlDone := func() bool {
		var status map[string]any
		call(t, cc, "GET", fmt.Sprintf("%s/tables/hotels/jobs/%d", ctl.URL, ctlKicked.Job), nil, &status)
		return status["state"] != "running" && status["state"] != "queued"
	}
	drainOverHTTP(t, cc, ctl.URL, "hotels", truth, ctlDone)
	if status := pollJob(t, cc, ctl.URL, "hotels", ctlKicked.Job); status["state"] != "done" {
		t.Fatalf("control job finished in state %v", status["state"])
	}
	want := sortedMatches(getMatches(t, cc, ctl.URL, "hotels"))

	if len(got) != len(want) {
		t.Fatalf("recovered session found %d matches; control %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d differs after recovery: %+v vs control %+v", i, got[i], want[i])
		}
	}
}

// failingJournal refuses every answer, as a poisoned store does.
type failingJournal struct{}

func (failingJournal) Posted([]crowd.HIT, time.Time)                     {}
func (failingJournal) Claimed(string, int, string, time.Time, time.Time) {}
func (failingJournal) Expired([]crowd.ExpiredClaim)                      {}
func (failingJournal) Retracted([]int)                                   {}
func (failingJournal) Answered(string, int, string, crowd.Assignment, bool) error {
	return errors.New("disk gone")
}

// TestAnswerNotDurableIs503: a valid answer the queue could not make
// durable is refused with 503, not acknowledged and not a 400, on both
// answer endpoints; the claim stays live and the global token keeps its
// route so the worker can retry.
func TestAnswerNotDurableIs503(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := srv.Client()

	q := crowd.NewQueue(crowd.QueueOptions{Journal: failingJournal{}})
	if !s.reg.put("t", &session{name: "t", tenant: "t", queue: q, jobs: map[int]*job{}}) {
		t.Fatal("registering the table failed")
	}
	if err := s.dispatcher.Register(dispatch.Session{Tenant: "t", Table: "t", Queue: q}); err != nil {
		t.Fatal(err)
	}
	if err := q.Post(context.Background(), crowd.PairHITsFromGen([][]record.Pair{{record.MakePair(0, 1)}, {record.MakePair(2, 3)}}, 1)); err != nil {
		t.Fatal(err)
	}
	answer := func(c *crowd.Claimed) map[string]any {
		p := c.HIT.Pairs[0]
		return map[string]any{"token": c.Token, "answers": []map[string]any{{"a": p.A, "b": p.B, "match": true}}}
	}

	local, ok := q.Claim("alice")
	if !ok {
		t.Fatal("claim failed")
	}
	if code := call(t, c, "POST", srv.URL+"/tables/t/hits/answer", answer(local), nil); code != http.StatusServiceUnavailable {
		t.Errorf("table answer returned %d; want 503", code)
	}
	if !q.ClaimLive(local.Token) {
		t.Error("table answer consumed the claim")
	}

	global, _, ok, err := s.dispatcher.Claim(context.Background(), "bob", 0)
	if err != nil || !ok {
		t.Fatalf("global claim: %v, %v", ok, err)
	}
	for try := 0; try < 2; try++ {
		if code := call(t, c, "POST", srv.URL+"/answer", answer(global), nil); code != http.StatusServiceUnavailable {
			t.Errorf("global answer (try %d) returned %d; want 503", try, code)
		}
	}
	if !q.ClaimLive(global.Token) {
		t.Error("global answer consumed the claim")
	}
}
