package main

// Loopback plumbing for the service workloads: crowderd's handler
// in-process behind a real TCP listener, and closed-loop clients that
// each own exactly one connection.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"time"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/service"
)

// daemon is one in-process crowderd on a loopback listener.
type daemon struct {
	url     string
	handler *service.Server
	srv     *http.Server
	served  chan struct{}
}

// startDaemon builds a server over dataDir (recovering whatever the
// directory holds when recoverFirst is set) and starts serving.
func startDaemon(dataDir string, recoverFirst bool) (*daemon, error) {
	h := service.New(service.Options{DataDir: dataDir})
	if recoverFirst {
		if _, err := h.Recover(context.Background()); err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String(), handler: h, srv: &http.Server{Handler: h}, served: make(chan struct{})}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// stop closes the listener and every connection and waits for the
// serve loop to return. The session stores stay as they are on disk,
// which is what a crash leaves.
func (d *daemon) stop() {
	_ = d.srv.Close()
	<-d.served
}

// client is one closed-loop caller with one connection of its own.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request. With out nil the body is read and discarded
// (n is its length; crc its checksum when wantCRC) — an 800 KB match
// list is never JSON-decoded inside a timed loop.
func (c *client) call(method, path string, body, out any, wantCRC bool) (status int, n int64, crc uint32, err error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	switch {
	case out != nil && resp.StatusCode < 300:
		err = json.NewDecoder(resp.Body).Decode(out)
		_, _ = io.Copy(io.Discard, resp.Body)
	case wantCRC:
		h := crc32.NewIEEE()
		n, err = io.Copy(h, resp.Body)
		crc = h.Sum32()
	default:
		n, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, n, crc, err
}

// do is call for requests whose only acceptable answer is 2xx.
func (c *client) do(method, path string, body, out any) error {
	status, _, _, err := c.call(method, path, body, out, false)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status >= 300 {
		return fmt.Errorf("%s %s: HTTP %d", method, path, status)
	}
	return nil
}

// jobResult is the part of a finished job's status the workloads read.
type jobResult struct {
	HITs          int `json:"hits"`
	NewCandidates int `json:"new_candidates"`
	MachinePairs  int `json:"machine_pairs"`
	DeducedPairs  int `json:"deduced_pairs"`
	Matches       int `json:"matches"`
}

type jobStatus struct {
	State  string    `json:"state"`
	Error  string    `json:"error"`
	Result jobResult `json:"result"`
}

// startResolve kicks a delta resolution and returns its job ID.
func (c *client) startResolve(table string) (int, error) {
	var kicked struct {
		Job int `json:"job"`
	}
	err := c.do("POST", "/tables/"+table+"/resolve", map[string]any{}, &kicked)
	return kicked.Job, err
}

func (c *client) job(table string, id int) (jobStatus, error) {
	var st jobStatus
	err := c.do("GET", fmt.Sprintf("/tables/%s/jobs/%d", table, id), nil, &st)
	return st, err
}

// resolveAndWait runs one delta to completion, polling as a client
// would. Any end state but "done" is an error.
func (c *client) resolveAndWait(table string) (jobResult, error) {
	id, err := c.startResolve(table)
	if err != nil {
		return jobResult{}, err
	}
	for {
		st, err := c.job(table, id)
		if err != nil {
			return jobResult{}, err
		}
		switch st.State {
		case "done":
			return st.Result, nil
		case "queued", "running":
			time.Sleep(time.Millisecond)
		default:
			return jobResult{}, fmt.Errorf("job %d of %s ended %s: %s", id, table, st.State, st.Error)
		}
	}
}

// matchesOf fetches and decodes a table's full match list (outside any
// timed loop).
func (c *client) matchesOf(table string) ([]crowder.Match, error) {
	var body struct {
		Matches []struct {
			A          int     `json:"a"`
			B          int     `json:"b"`
			Confidence float64 `json:"confidence"`
		} `json:"matches"`
	}
	if err := c.do("GET", "/tables/"+table+"/matches", nil, &body); err != nil {
		return nil, err
	}
	out := make([]crowder.Match, len(body.Matches))
	for i, m := range body.Matches {
		out[i] = crowder.Match{Pair: crowder.Pair{A: m.A, B: m.B}, Confidence: m.Confidence}
	}
	return out, nil
}

// oracleJSON renders an oracle for a table-creation request.
func oracleJSON(oracle []crowder.Pair) [][2]int {
	out := make([][2]int, len(oracle))
	for i, p := range oracle {
		out[i] = [2]int{p.A, p.B}
	}
	return out
}
