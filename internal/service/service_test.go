package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
)

// call issues one JSON request and decodes the JSON response.
func call(t *testing.T, client *http.Client, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// pollJob polls a job until it leaves the in-flight ("queued" or
// "running") states.
func pollJob(t *testing.T, client *http.Client, base, table string, id int) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var status map[string]any
		code := call(t, client, "GET", fmt.Sprintf("%s/tables/%s/jobs/%d", base, table, id), nil, &status)
		if code != http.StatusOK {
			t.Fatalf("job status returned %d: %v", code, status)
		}
		if status["state"] != "running" && status["state"] != "queued" {
			return status
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d still in flight: %v", id, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getMatches(t *testing.T, client *http.Client, base, table string) []matchJSON {
	t.Helper()
	var body struct {
		Matches []matchJSON `json:"matches"`
	}
	if code := call(t, client, "GET", base+"/tables/"+table+"/matches", nil, &body); code != http.StatusOK {
		t.Fatalf("matches returned %d", code)
	}
	return body.Matches
}

// serviceDataset returns a small crowdable dataset in wire format.
func serviceDataset(t *testing.T) (schema []string, rows [][]string, oracle [][2]int, libOracle []crowder.Pair) {
	t.Helper()
	d := dataset.RestaurantN(4, 80, 15)
	for i := range d.Table.Records {
		rows = append(rows, d.Table.Records[i].Values)
	}
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, [2]int{int(p.A), int(p.B)})
		libOracle = append(libOracle, crowder.Pair{A: int(p.A), B: int(p.B)})
	}
	return d.Table.Schema, rows, oracle, libOracle
}

// TestServiceSimulatedRoundTrip is the CI smoke: create a simulated-
// backend table over HTTP, append, resolve, poll, and assert the
// returned matches are bit-identical to a library-mode Resolve of the
// same table with the same options.
func TestServiceSimulatedRoundTrip(t *testing.T) {
	schema, rows, oracle, libOracle := serviceDataset(t)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	c := srv.Client()

	if code := call(t, c, "POST", srv.URL+"/tables/products", tableRequest{
		Schema: schema,
		Options: optionsRequest{
			Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7,
			Oracle: oracle,
		},
	}, nil); code != http.StatusCreated {
		t.Fatalf("create table returned %d", code)
	}
	if code := call(t, c, "POST", srv.URL+"/tables/products/records",
		map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append returned %d", code)
	}
	var kicked struct {
		Job int `json:"job"`
	}
	if code := call(t, c, "POST", srv.URL+"/tables/products/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("resolve returned %d", code)
	}
	status := pollJob(t, c, srv.URL, "products", kicked.Job)
	if status["state"] != "done" {
		t.Fatalf("job finished in state %v: %v", status["state"], status)
	}
	got := getMatches(t, c, srv.URL, "products")

	// Library-mode reference: same table, same options.
	tab := crowder.NewTable(schema...)
	for _, row := range rows {
		tab.Append(row...)
	}
	want, err := crowder.Resolve(tab, crowder.Options{
		Threshold: 0.4, HITType: crowder.PairHITs, ClusterSize: 5, Seed: 7,
		Oracle: libOracle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Matches) {
		t.Fatalf("service returned %d matches; library %d", len(got), len(want.Matches))
	}
	for i, m := range want.Matches {
		if got[i].A != m.Pair.A || got[i].B != m.Pair.B || got[i].Confidence != m.Confidence {
			t.Fatalf("match %d differs: service %+v vs library %+v", i, got[i], m)
		}
	}
	checkMatchesFilter(t, c, srv.URL+"/tables/products/matches", got)
}

// checkMatchesFilter pins GET /matches?min=: the unfiltered body is
// exactly the encoded match list, a value that is not wholly a number
// (or is NaN) is a 400, and a filter that keeps no row answers [], not
// null.
func checkMatchesFilter(t *testing.T, c *http.Client, url string, all []matchJSON) {
	t.Helper()
	get := func(query string) (int, string) {
		resp, err := c.Get(url + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	if len(all) == 0 {
		t.Fatal("fixture resolved no matches")
	}
	want, err := json.Marshal(map[string]any{"matches": all, "total": len(all)})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"", "?min=-1"} {
		if code, body := get(q); code != http.StatusOK || body != string(want)+"\n" {
			t.Errorf("GET matches%s = %d %.80q; want the full list", q, code, body)
		}
	}
	for _, q := range []string{"?min=0.9abc", "?min=NaN", "?min=nan", "?min=%20", "?min=0x"} {
		if code, body := get(q); code != http.StatusBadRequest {
			t.Errorf("GET matches%s = %d %q; want 400", q, code, body)
		}
	}
	if code, body := get("?min=2"); code != http.StatusOK || body != `{"matches":[],"total":0}`+"\n" {
		t.Errorf("GET matches?min=2 = %d %q; want an empty list", code, body)
	}
}

// drainOverHTTP claims and answers every open assignment through the
// worker API, answering per ground truth with a deterministic worker
// rotation, until the job completes.
func drainOverHTTP(t *testing.T, c *http.Client, base, table string, truth record.PairSet, done func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	worker := 0
	for !done() {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		var claim struct {
			Token string  `json:"token"`
			HIT   hitJSON `json:"hit"`
		}
		code := call(t, c, "POST", base+"/tables/"+table+"/hits/claim",
			map[string]any{"worker": fmt.Sprintf("w%d", worker%3)}, &claim)
		if code != http.StatusOK {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		worker++
		var answers []map[string]any
		for _, p := range claim.HIT.Pairs {
			answers = append(answers, map[string]any{
				"a": p.A, "b": p.B,
				"match": truth.Has(record.ID(p.A), record.ID(p.B)),
			})
		}
		if code := call(t, c, "POST", base+"/tables/"+table+"/hits/answer",
			map[string]any{"token": claim.Token, "answers": answers}, nil); code != http.StatusOK {
			t.Fatalf("answer returned %d", code)
		}
	}
}

// TestServiceQueueRoundTrip is the acceptance round-trip: records
// appended over HTTP, HITs answered by external workers through the
// queue-backend worker API, and the returned matches equal library-mode
// resolution of the same table (a Resolver on an in-process queue
// backend, driven by the identical worker schedule).
func TestServiceQueueRoundTrip(t *testing.T) {
	schema, rows, _, libOracle := serviceDataset(t)
	truth := record.NewPairSet()
	for _, p := range libOracle {
		truth.Add(record.ID(p.A), record.ID(p.B))
	}

	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	c := srv.Client()

	if code := call(t, c, "POST", srv.URL+"/tables/hotels", tableRequest{
		Schema: schema,
		Options: optionsRequest{
			Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7,
			Backend: "queue", Interim: true,
		},
	}, nil); code != http.StatusCreated {
		t.Fatalf("create table returned %d", code)
	}
	if code := call(t, c, "POST", srv.URL+"/tables/hotels/records",
		map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append returned %d", code)
	}
	var kicked struct {
		Job int `json:"job"`
	}
	if code := call(t, c, "POST", srv.URL+"/tables/hotels/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("resolve returned %d", code)
	}

	jobDone := func() bool {
		var status map[string]any
		call(t, c, "GET", fmt.Sprintf("%s/tables/hotels/jobs/%d", srv.URL, kicked.Job), nil, &status)
		return status["state"] != "running" && status["state"] != "queued"
	}
	drainOverHTTP(t, c, srv.URL, "hotels", truth, jobDone)
	status := pollJob(t, c, srv.URL, "hotels", kicked.Job)
	if status["state"] != "done" {
		t.Fatalf("job finished in state %v: %v", status["state"], status)
	}
	got := getMatches(t, c, srv.URL, "hotels")

	// Library-mode reference: an in-process queue backend driven by the
	// same worker schedule (same claim order, same worker rotation, same
	// truthful answers), so the answer sets are identical.
	q := crowder.NewQueueBackend(crowder.QueueOptions{})
	rv, err := crowder.NewResolver(crowder.NewTable(schema...), crowder.Options{
		Threshold: 0.4, HITType: crowder.PairHITs, ClusterSize: 5, Seed: 7,
		Backend: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	rv.AppendBatch(rows...)
	resCh := make(chan *crowder.Result, 1)
	go func() {
		res, err := rv.ResolveDelta()
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	var want *crowder.Result
	worker := 0
	deadline := time.Now().Add(30 * time.Second)
	for want == nil {
		if time.Now().After(deadline) {
			t.Fatal("library-mode queue never drained")
		}
		claim, ok := q.Claim(fmt.Sprintf("w%d", worker%3))
		if ok {
			worker++
			var vs []crowder.Verdict
			for _, p := range claim.HIT.Pairs {
				vs = append(vs, crowder.Verdict{A: p.A, B: p.B, Match: truth.Has(p.A, p.B)})
			}
			if err := q.Answer(claim.Token, vs); err != nil {
				t.Fatal(err)
			}
		} else {
			time.Sleep(time.Millisecond)
		}
		select {
		case want = <-resCh:
		default:
		}
	}

	if len(got) != len(want.Matches) {
		t.Fatalf("service returned %d matches; library %d", len(got), len(want.Matches))
	}
	for i, m := range want.Matches {
		if got[i].A != m.Pair.A || got[i].B != m.Pair.B || got[i].Confidence != m.Confidence {
			t.Fatalf("match %d differs: service %+v vs library %+v", i, got[i], m)
		}
	}
}

// TestServiceJobCancel: cancelling a queue-backend job over HTTP stops
// the resolution; the table reports no matches yet and a later resolve
// retries the pending candidates.
func TestServiceJobCancel(t *testing.T) {
	schema, rows, _, _ := serviceDataset(t)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	c := srv.Client()

	call(t, c, "POST", srv.URL+"/tables/slow", tableRequest{
		Schema:  schema,
		Options: optionsRequest{Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7, Backend: "queue"},
	}, nil)
	call(t, c, "POST", srv.URL+"/tables/slow/records", map[string]any{"rows": rows}, nil)
	var kicked struct {
		Job int `json:"job"`
	}
	call(t, c, "POST", srv.URL+"/tables/slow/resolve", map[string]any{}, &kicked)

	// Nobody answers; cancel the job.
	if code := call(t, c, "DELETE", fmt.Sprintf("%s/tables/slow/jobs/%d", srv.URL, kicked.Job), nil, nil); code != http.StatusOK {
		t.Fatalf("cancel returned %d", code)
	}
	status := pollJob(t, c, srv.URL, "slow", kicked.Job)
	if status["state"] != "cancelled" {
		t.Fatalf("job state = %v; want cancelled", status["state"])
	}
	// No completed resolution → no matches.
	if code := call(t, c, "GET", srv.URL+"/tables/slow/matches", nil, &map[string]any{}); code != http.StatusNotFound {
		t.Fatalf("matches after cancel returned %d; want 404", code)
	}
	// A fresh resolve job can start (the candidates stayed pending).
	if code := call(t, c, "POST", srv.URL+"/tables/slow/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("retry resolve returned %d", code)
	}
}

// TestServiceConcurrentJobRejected: one job per table at a time.
func TestServiceConcurrentJobRejected(t *testing.T) {
	schema, rows, _, _ := serviceDataset(t)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	c := srv.Client()

	call(t, c, "POST", srv.URL+"/tables/busy", tableRequest{
		Schema:  schema,
		Options: optionsRequest{Threshold: 0.4, HITType: "pair", Seed: 7, Backend: "queue"},
	}, nil)
	call(t, c, "POST", srv.URL+"/tables/busy/records", map[string]any{"rows": rows}, nil)
	var kicked struct {
		Job int `json:"job"`
	}
	call(t, c, "POST", srv.URL+"/tables/busy/resolve", map[string]any{}, &kicked)
	if code := call(t, c, "POST", srv.URL+"/tables/busy/resolve", map[string]any{}, nil); code != http.StatusConflict {
		t.Fatalf("second resolve returned %d; want 409", code)
	}
	call(t, c, "DELETE", fmt.Sprintf("%s/tables/busy/jobs/%d", srv.URL, kicked.Job), nil, nil)
	pollJob(t, c, srv.URL, "busy", kicked.Job)
}

// TestServiceErrors covers the API's failure envelope.
func TestServiceErrors(t *testing.T) {
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	c := srv.Client()

	if code := call(t, c, "GET", srv.URL+"/tables/nope/matches", nil, &map[string]any{}); code != http.StatusNotFound {
		t.Errorf("unknown table returned %d", code)
	}
	if code := call(t, c, "POST", srv.URL+"/tables/bad", tableRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("missing schema returned %d", code)
	}
	if code := call(t, c, "POST", srv.URL+"/tables/bad2", tableRequest{
		Schema:  []string{"name"},
		Options: optionsRequest{Workers: -1},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid options returned %d (validation must reach the API)", code)
	}
	if code := call(t, c, "POST", srv.URL+"/tables/bad3", tableRequest{
		Schema:  []string{"name"},
		Options: optionsRequest{Backend: "mturk"},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown backend returned %d", code)
	}
	// Duplicate table names conflict.
	call(t, c, "POST", srv.URL+"/tables/dup", tableRequest{Schema: []string{"name"}, Options: optionsRequest{MachineOnly: true}}, nil)
	if code := call(t, c, "POST", srv.URL+"/tables/dup", tableRequest{Schema: []string{"name"}, Options: optionsRequest{MachineOnly: true}}, nil); code != http.StatusConflict {
		t.Errorf("duplicate table returned %d", code)
	}
	// Worker endpoints require a queue backend.
	if code := call(t, c, "GET", srv.URL+"/tables/dup/hits", nil, &map[string]any{}); code != http.StatusConflict {
		t.Errorf("hits on simulated table returned %d", code)
	}
	var health map[string]any
	if code := call(t, c, "GET", srv.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Errorf("healthz returned %d", code)
	}
}

// TestServiceMetricsMachineOnly: a machine_only table's pairs are
// machine verdicts, and its /metrics resolution row reports them so.
func TestServiceMetricsMachineOnly(t *testing.T) {
	schema, rows, _, _ := serviceDataset(t)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	c := srv.Client()
	call(t, c, "POST", srv.URL+"/tables/mo", tableRequest{Schema: schema, Options: optionsRequest{MachineOnly: true, Threshold: 0.4}}, nil)
	call(t, c, "POST", srv.URL+"/tables/mo/records", map[string]any{"rows": rows}, nil)
	var kicked struct {
		Job int `json:"job"`
	}
	call(t, c, "POST", srv.URL+"/tables/mo/resolve", map[string]any{}, &kicked)
	pollJob(t, c, srv.URL, "mo", kicked.Job)
	judged := len(getMatches(t, c, srv.URL, "mo"))
	if judged == 0 {
		t.Fatal("fixture judged no pairs; the metrics check is vacuous")
	}
	var metrics struct {
		Resolution []struct {
			Table        string `json:"table"`
			MachinePairs int    `json:"machine_pairs"`
			CrowdPairs   int    `json:"crowd_pairs"`
		} `json:"resolution"`
	}
	if code := call(t, c, "GET", srv.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	if len(metrics.Resolution) != 1 || metrics.Resolution[0].Table != "mo" {
		t.Fatalf("metrics resolution rows = %+v; want one for table mo", metrics.Resolution)
	}
	if row := metrics.Resolution[0]; row.MachinePairs != judged || row.CrowdPairs != 0 {
		t.Errorf("machine_only row reports %d machine and %d crowd pairs; want %d and 0", row.MachinePairs, row.CrowdPairs, judged)
	}
}

// TestServiceTransitivity: a table created with transitivity enabled
// resolves with the adaptive scheduler and the job result surfaces the
// savings (deduced pairs, HITs saved) next to the HIT count.
func TestServiceTransitivity(t *testing.T) {
	d := dataset.ProductDup(2, dataset.Product(1))
	var rows [][]string
	for i := range d.Table.Records {
		rows = append(rows, d.Table.Records[i].Values)
	}
	var oracle [][2]int
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, [2]int{int(p.A), int(p.B)})
	}

	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	client := srv.Client()

	if code := call(t, client, "POST", srv.URL+"/tables/t", map[string]any{
		"schema": d.Table.Schema,
		"options": map[string]any{
			"threshold": 0.5, "hit_type": "pair", "cluster_size": 10,
			"seed": 1, "oracle": oracle, "transitivity": true,
		},
	}, nil); code != http.StatusCreated {
		t.Fatalf("create table returned %d", code)
	}
	if code := call(t, client, "POST", srv.URL+"/tables/t/records", map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append returned %d", code)
	}
	var kicked struct {
		Job int `json:"job"`
	}
	if code := call(t, client, "POST", srv.URL+"/tables/t/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("resolve returned %d", code)
	}
	status := pollJob(t, client, srv.URL, "t", kicked.Job)
	if status["state"] != "done" {
		t.Fatalf("job ended %v: %v", status["state"], status["error"])
	}
	res, ok := status["result"].(map[string]any)
	if !ok {
		t.Fatalf("no result in %v", status)
	}
	deduced := int(res["deduced_pairs"].(float64))
	saved := int(res["hits_saved"].(float64))
	hits := int(res["hits"].(float64))
	if _, ok := res["retracted_hits"]; !ok {
		t.Error("result does not surface retracted_hits")
	}
	if deduced == 0 || saved <= 0 {
		t.Errorf("transitive job reports deduced=%d saved=%d (hits=%d); want positive savings", deduced, saved, hits)
	}
	if prog, ok := status["progress"].(map[string]any); !ok {
		t.Error("no progress in job status")
	} else if _, ok := prog["retracted"]; !ok {
		t.Error("job progress does not surface retracted")
	}
}

// TestServiceAggregation: a table created with the MAP aggregator
// resolves under it, job status echoes options.aggregation, and the
// finished job carries the per-worker accuracy/coverage report. An
// unknown aggregator name is rejected at table creation.
func TestServiceAggregation(t *testing.T) {
	schema, rows, oracle, libOracle := serviceDataset(t)
	srv := httptest.NewServer(New(Options{}))
	defer srv.Close()
	c := srv.Client()

	if code := call(t, c, "POST", srv.URL+"/tables/agg", tableRequest{
		Schema: schema,
		Options: optionsRequest{
			Threshold: 0.4, HITType: "pair", ClusterSize: 5, Seed: 7,
			Oracle: oracle, Aggregation: "dawid-skene-map",
		},
	}, nil); code != http.StatusCreated {
		t.Fatalf("create table returned %d", code)
	}
	if code := call(t, c, "POST", srv.URL+"/tables/agg/records",
		map[string]any{"rows": rows}, nil); code != http.StatusOK {
		t.Fatalf("append returned %d", code)
	}
	var kicked struct {
		Job int `json:"job"`
	}
	if code := call(t, c, "POST", srv.URL+"/tables/agg/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
		t.Fatalf("resolve returned %d", code)
	}
	status := pollJob(t, c, srv.URL, "agg", kicked.Job)
	if status["state"] != "done" {
		t.Fatalf("job ended %v: %v", status["state"], status["error"])
	}
	opts, ok := status["options"].(map[string]any)
	if !ok {
		t.Fatalf("job status carries no options: %v", status)
	}
	if opts["aggregation"] != "dawid-skene-map" {
		t.Errorf("options.aggregation = %v; want dawid-skene-map", opts["aggregation"])
	}
	if opts["transitivity"] != false {
		t.Errorf("options.transitivity = %v; want false", opts["transitivity"])
	}

	workers, ok := status["workers"].([]any)
	if !ok || len(workers) == 0 {
		t.Fatalf("finished job carries no worker report: %v", status["workers"])
	}
	for _, raw := range workers {
		ws := raw.(map[string]any)
		for _, key := range []string{"worker", "accuracy", "answers", "matches_seen", "non_matches_seen", "classes_seen"} {
			if _, ok := ws[key]; !ok {
				t.Fatalf("worker report entry %v lacks %q", ws, key)
			}
		}
		if acc := ws["accuracy"].(float64); acc < 0 || acc > 1 {
			t.Errorf("worker %v accuracy %v outside [0,1]", ws["worker"], acc)
		}
		if int(ws["matches_seen"].(float64))+int(ws["non_matches_seen"].(float64)) != int(ws["answers"].(float64)) {
			t.Errorf("worker %v coverage does not add up: %v", ws["worker"], ws)
		}
	}

	// The service's MAP matches must equal a library-mode MAP resolve.
	got := getMatches(t, c, srv.URL, "agg")
	union := crowder.NewTable(schema...)
	for _, row := range rows {
		union.Append(row...)
	}
	want, err := crowder.Resolve(union, crowder.Options{
		Threshold: 0.4, HITType: crowder.PairHITs, ClusterSize: 5, Seed: 7,
		Oracle: libOracle, Aggregation: crowder.AggregationDawidSkeneMAP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Matches) {
		t.Fatalf("service returned %d matches; library %d", len(got), len(want.Matches))
	}
	for i, m := range want.Matches {
		if got[i].A != m.Pair.A || got[i].B != m.Pair.B || got[i].Confidence != m.Confidence {
			t.Fatalf("match %d differs: service %+v vs library %+v", i, got[i], m)
		}
	}

	// Default tables echo the default aggregator.
	call(t, c, "POST", srv.URL+"/tables/defagg", tableRequest{Schema: schema, Options: optionsRequest{MachineOnly: true}}, nil)
	call(t, c, "POST", srv.URL+"/tables/defagg/records", map[string]any{"rows": rows[:2]}, nil)
	var kicked2 struct {
		Job int `json:"job"`
	}
	call(t, c, "POST", srv.URL+"/tables/defagg/resolve", map[string]any{}, &kicked2)
	st2 := pollJob(t, c, srv.URL, "defagg", kicked2.Job)
	if opts2, ok := st2["options"].(map[string]any); !ok || opts2["aggregation"] != "dawid-skene" {
		t.Errorf("default table options = %v; want aggregation dawid-skene", st2["options"])
	}

	// Unknown aggregator names fail at creation, naming the value.
	var errBody map[string]any
	if code := call(t, c, "POST", srv.URL+"/tables/badagg", tableRequest{
		Schema:  schema,
		Options: optionsRequest{Aggregation: "em"},
	}, &errBody); code != http.StatusBadRequest {
		t.Errorf("unknown aggregation returned %d", code)
	}
}

// TestServiceConcurrentJobAfterTerminal: the moment a job's state turns
// done or cancelled, the table serves that job's matches and takes the
// next resolve (no 409). The test spins on the state as a status poll
// reads it and calls the handlers as soon as it changes, so a table
// released only after its job's state is published fails within a few
// rounds.
func TestServiceConcurrentJobAfterTerminal(t *testing.T) {
	s := New(Options{})
	serve := func(method, path string, body, out any) int {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(method, path, &buf))
		if out != nil {
			if err := json.NewDecoder(rr.Body).Decode(out); err != nil {
				t.Fatalf("%s %s: decoding response: %v", method, path, err)
			}
		}
		return rr.Code
	}
	resolve := func(table string) int {
		t.Helper()
		var kicked struct {
			Job int `json:"job"`
		}
		if code := serve("POST", "/tables/"+table+"/resolve", map[string]any{}, &kicked); code != http.StatusAccepted {
			t.Fatalf("resolve %s returned %d", table, code)
		}
		return kicked.Job
	}
	// terminal spins on the job's state, read under j.mu as
	// handleJobStatus reads it, until it leaves queued and running; by
	// then the table must already be released.
	terminal := func(table string, id int) string {
		t.Helper()
		sess := s.reg.get(table)
		sess.mu.Lock()
		j := sess.jobs[id]
		sess.mu.Unlock()
		for start := time.Now(); time.Since(start) < 30*time.Second; runtime.Gosched() {
			j.mu.Lock()
			state := j.state
			j.mu.Unlock()
			if state != "queued" && state != "running" {
				sess.mu.Lock()
				running := sess.running
				sess.mu.Unlock()
				if running {
					t.Fatalf("job %d of %s is %s but the table is still running it", id, table, state)
				}
				return state
			}
		}
		t.Fatalf("job %d of %s never finished", id, table)
		return ""
	}
	rows := [][]string{{"iPad 2 16GB wifi"}, {"iPad 2 16GB wi-fi"}, {"iPhone 4 16GB"}}

	// Done: a fresh table each round, so a result not yet installed
	// shows as a 404.
	for i := 0; i < 100; i++ {
		table := fmt.Sprintf("done%d", i)
		serve("POST", "/tables/"+table, tableRequest{
			Schema:  []string{"name"},
			Options: optionsRequest{Threshold: 0.3, HITType: "pair", Seed: 7, Oracle: [][2]int{{0, 1}}},
		}, nil)
		serve("POST", "/tables/"+table+"/records", map[string]any{"rows": rows}, nil)
		if state := terminal(table, resolve(table)); state != "done" {
			t.Fatalf("round %d: job finished %s", i, state)
		}
		if code := serve("GET", "/tables/"+table+"/matches", nil, nil); code != http.StatusOK {
			t.Fatalf("round %d: matches right after done returned %d", i, code)
		}
		terminal(table, resolve(table))
	}

	// Cancelled: a queue table nobody works, cancelled and re-resolved.
	serve("POST", "/tables/q", tableRequest{
		Schema:  []string{"name"},
		Options: optionsRequest{Threshold: 0.3, HITType: "pair", Seed: 7, Backend: "queue"},
	}, nil)
	serve("POST", "/tables/q/records", map[string]any{"rows": rows}, nil)
	job := resolve("q")
	for i := 0; i < 100; i++ {
		serve("DELETE", fmt.Sprintf("/tables/q/jobs/%d", job), nil, nil)
		if state := terminal("q", job); state != "cancelled" {
			t.Fatalf("round %d: job finished %s", i, state)
		}
		job = resolve("q")
	}
	serve("DELETE", fmt.Sprintf("/tables/q/jobs/%d", job), nil, nil)
	terminal("q", job)
}
