package main

// The service half of session-delta's traced pass: the session over
// HTTP once more — rounds, reads, restarts — for the tails and
// sub-steps of its loops, held against its library twin.

import (
	"net/http"
	"net/http/httptest"
)

// serviceSession runs the session, sets the service.* metrics and the
// router's and deducer's shares, checks the session against its library
// twin (returned) and restarts it Restarts times.
func serviceSession(r *run, p sessionPlan) (*sessionReplay, error) {
	u, err := sessionServe(r, p, "session-trace")
	if err != nil {
		return nil, err
	}
	defer u.stop()

	roundMs := make([]float64, len(u.rounds))
	for i, s := range u.rounds {
		roundMs[i] = 1000 * s
	}
	r.set("service.delta_round_ms_p90", capQuantile(roundMs, 0.90))
	r.set("service.append_ms_p50", 1000*median(u.appends))
	r.samples("service.delta_round_ms_p90", len(roundMs))
	r.set("transitivity.deduced_share", ratio(float64(u.deducedPairs), float64(u.newCandidates)))
	r.set("learn.machine_share", ratio(float64(u.machinePairs), float64(u.newCandidates)))

	r.set("service.matches_bytes", float64(u.reads.size))
	r.set("service.matches_read_ms_p95", capQuantile(u.reads.fullMs, 0.95))
	r.set("service.filtered_read_ms_p95", capQuantile(u.reads.filterMs, 0.95))
	r.samples("service.matches_read_ms_p95", len(u.reads.fullMs))
	r.samples("service.filtered_read_ms_p95", len(u.reads.filterMs))

	// The handler alone, no TCP: what a read costs before the network.
	var handlerMs []float64
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/tables/"+sessionTable+"/matches", nil)
		handlerMs = append(handlerMs, 1000*r.tr.do(-1, "service.matches_handler", func() { u.d.handler.ServeHTTP(rec, req) }))
		r.op(rec.Code == http.StatusOK && int64(rec.Body.Len()) == u.reads.size, "in-process /matches: HTTP %d, %d bytes", rec.Code, rec.Body.Len())
	}
	r.set("service.matches_handler_ms", median(handlerMs))
	r.set("service.http_overhead_ms", median(u.reads.fullMs)-median(handlerMs))
	r.samples("service.matches_handler_ms", len(handlerMs))

	lib, err := sessionLibrary(r, p)
	if err != nil {
		return nil, err
	}
	// The check is held on the first restart; the rest are timed only.
	if err := u.phaseC(r); err != nil {
		return nil, err
	}
	if err := sessionCheck(r, u, lib); err != nil {
		return nil, err
	}
	for len(u.restartMs) < r.sz.Restarts {
		if err := u.phaseC(r); err != nil {
			return nil, err
		}
	}
	r.set("service.recover_ms", median(u.restartMs))
	r.samples("service.recover_ms", len(u.restartMs))
	return lib, nil
}
