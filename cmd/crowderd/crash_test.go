package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
)

// daemonEnv switches the test binary into crowderd itself, so the crash
// drill can SIGKILL a real daemon process without building one.
const daemonEnv = "CROWDERD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type match struct {
	A          int     `json:"a"`
	B          int     `json:"b"`
	Confidence float64 `json:"confidence"`
}

type claimJSON struct {
	Token string `json:"token"`
	HIT   struct {
		Pairs []struct {
			A int `json:"a"`
			B int `json:"b"`
		} `json:"pairs"`
	} `json:"hit"`
}

// TestSIGKILLRecovery is the real-process crash drill. A durable
// crowderd is SIGKILLed mid-resolve after a worker answered half the
// posted HITs over HTTP, then restarted on the same data directory. The
// revived daemon must never serve again a pair that was answered (and
// paid for) before the kill, must still have had work left (the kill
// really was mid-flight), and must finish with matches identical to a
// daemon that never went down.
func TestSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three daemon processes")
	}
	d := dataset.RestaurantN(4, 80, 15)
	rows := make([][]string, d.Table.Len())
	for i := range d.Table.Records {
		rows[i] = d.Table.Records[i].Values
	}
	create := func(url string) {
		mustCall(t, "POST", url+"/tables/bench", map[string]any{
			"schema": d.Table.Schema,
			"options": map[string]any{
				"threshold": 0.4, "hit_type": "pair", "cluster_size": 1,
				"seed": 7, "backend": "queue", "assignments": 1,
				"aggregation": "majority-vote",
			},
		}, nil)
		mustCall(t, "POST", url+"/tables/bench/records", map[string]any{"rows": rows}, nil)
	}

	// Victim: create, append, resolve, answer half the HITs, SIGKILL —
	// no flush, no shutdown hook; what was fsynced is all that survives.
	dataDir := t.TempDir()
	url, victim := startDaemon(t, dataDir)
	create(url)
	mustCall(t, "POST", url+"/tables/bench/resolve", map[string]any{}, nil)
	var open struct {
		Hits []json.RawMessage `json:"hits"`
	}
	for deadline := time.Now().Add(15 * time.Second); len(open.Hits) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("victim crowderd never posted HITs")
		}
		mustCall(t, "GET", url+"/tables/bench/hits", nil, &open)
	}
	paid := make(map[[2]int]bool)
	for i := 0; i < (len(open.Hits)+1)/2; i++ {
		var cl claimJSON
		mustCall(t, "POST", url+"/tables/bench/hits/claim", map[string]any{"worker": "w"}, &cl)
		for _, p := range cl.HIT.Pairs {
			paid[[2]int{p.A, p.B}] = true
		}
		mustCall(t, "POST", url+"/tables/bench/hits/answer", answer(cl, d.Matches), nil)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = victim.Wait()

	// Revived: recovery runs before the listener opens.
	url, _ = startDaemon(t, dataDir)
	var tables struct {
		Tables []string `json:"tables"`
	}
	mustCall(t, "GET", url+"/tables", nil, &tables)
	if !slices.Equal(tables.Tables, []string{"bench"}) {
		t.Fatalf("recovered tables = %v; want [bench]", tables.Tables)
	}
	got, claims, reserved := drain(t, url, d.Matches, paid)
	if claims == 0 {
		t.Fatal("nothing left to answer after restart: the kill was not mid-flight")
	}
	if reserved != 0 {
		t.Errorf("%d of %d pairs paid for before the kill were served again", reserved, len(paid))
	}

	// Control: the same workload on a daemon that never goes down.
	url, _ = startDaemon(t, t.TempDir())
	create(url)
	want, _, _ := drain(t, url, d.Matches, nil)
	if !slices.Equal(got, want) {
		t.Errorf("after SIGKILL + restart: %d matches, differing from the never-killed control's %d", len(got), len(want))
	}
}

// startDaemon runs the test binary as crowderd on a free loopback port
// and waits for /healthz. The process is killed when the test ends.
func startDaemon(t *testing.T, dataDir string) (string, *exec.Cmd) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(self, "-addr", addr, "-data-dir", dataDir, "-sweep", "1s")
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	url := "http://" + addr
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return url, cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("crowderd on %s never became healthy: %v", addr, err)
		}
	}
}

// drain starts a resolve and works it to completion as the table's only
// worker, answering from truth. It returns the final matches sorted by
// pair, the HITs it claimed, and how many served pairs were in paid.
func drain(t *testing.T, url string, truth record.PairSet, paid map[[2]int]bool) (ms []match, claims, reserved int) {
	t.Helper()
	var kicked struct {
		Job int `json:"job"`
	}
	mustCall(t, "POST", url+"/tables/bench/resolve", map[string]any{}, &kicked)
	for deadline := time.Now().Add(60 * time.Second); ; {
		var status struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		mustCall(t, "GET", url+"/tables/bench/jobs/"+strconv.Itoa(kicked.Job), nil, &status)
		if status.State == "done" {
			break
		}
		if status.State != "running" && status.State != "queued" {
			t.Fatalf("job ended in state %q: %s", status.State, status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		var cl claimJSON
		if call(t, "POST", url+"/tables/bench/hits/claim", map[string]any{"worker": "w"}, &cl) != http.StatusOK {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		claims++
		for _, p := range cl.HIT.Pairs {
			if paid[[2]int{p.A, p.B}] {
				reserved++
			}
		}
		mustCall(t, "POST", url+"/tables/bench/hits/answer", answer(cl, truth), nil)
	}
	var body struct {
		Matches []match `json:"matches"`
	}
	mustCall(t, "GET", url+"/tables/bench/matches", nil, &body)
	slices.SortFunc(body.Matches, func(x, y match) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return body.Matches, claims, reserved
}

// answer judges every pair of a claimed HIT truthfully.
func answer(cl claimJSON, truth record.PairSet) map[string]any {
	var answers []map[string]any
	for _, p := range cl.HIT.Pairs {
		answers = append(answers, map[string]any{
			"a": p.A, "b": p.B, "match": truth.Has(record.ID(p.A), record.ID(p.B)),
		})
	}
	return map[string]any{"token": cl.Token, "answers": answers}
}

// call issues one JSON request, decodes a 2xx reply into out and returns
// the status code.
func call(t *testing.T, method, url string, body, out any) int {
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
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 300 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding reply: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// mustCall is call for requests that must succeed.
func mustCall(t *testing.T, method, url string, body, out any) {
	t.Helper()
	if code := call(t, method, url, body, out); code >= 300 {
		t.Fatalf("%s %s returned %d", method, url, code)
	}
}
