// Durable sessions: when Options.DataDir is set, every table logs its
// state mutations to a per-session WAL (with compacting snapshots)
// under DataDir/<tenant>/<table>/, and Recover rebuilds all sessions
// from disk before the daemon starts serving — a crowderd restart never
// loses a paid verdict. The session-construction path is shared between
// POST /tables/{table} (fresh session, empty store) and Recover
// (session rebuilt from its replayed log).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"time"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dispatch"
	"github.com/crowder/crowder/internal/store"
)

// errStaleSessionDir means a create found existing on-disk state for the
// table it was about to make. That state belongs to a crashed session
// that was never recovered (crowderd runs Recover before serving, so a
// recovered table would have 409'd on the registry instead); silently
// appending a new session's events to it would corrupt both.
var errStaleSessionDir = errors.New("data directory already holds state for this table; restart the daemon to recover it")

// optionsFromRequest translates the API options body into engine
// options. Backend wiring (simulated vs queue) happens in buildSession;
// the backend name is validated there.
func optionsFromRequest(req optionsRequest) (crowder.Options, error) {
	opts := crowder.Options{
		Threshold:          req.Threshold,
		ClusterSize:        req.ClusterSize,
		Assignments:        req.Assignments,
		Seed:               req.Seed,
		Workers:            req.Workers,
		SpammerRate:        req.SpammerRate,
		MachineOnly:        req.MachineOnly,
		Parallelism:        req.Parallelism,
		InterimAggregation: req.Interim,
	}
	if req.Transitivity {
		opts.Transitivity = crowder.TransitivityOn
	}
	if req.Hybrid {
		opts.Hybrid = crowder.HybridOn
		opts.HybridRisk = req.HybridRisk
		opts.HybridMinLabels = req.HybridMinLabels
		opts.HybridBudgetDollars = req.HybridBudgetDollars
	}
	agg, err := crowder.ParseAggregationMode(req.Aggregation)
	if err != nil {
		return crowder.Options{}, err
	}
	opts.Aggregation = agg
	switch req.HITType {
	case "", "cluster":
		opts.HITType = crowder.ClusterHITs
	case "pair":
		opts.HITType = crowder.PairHITs
	default:
		return crowder.Options{}, fmt.Errorf("unknown hit_type %q (want \"pair\" or \"cluster\")", req.HITType)
	}
	if req.Oracle != nil {
		opts.Oracle = make([]crowder.Pair, len(req.Oracle))
		for i, p := range req.Oracle {
			opts.Oracle[i] = crowder.Pair{A: p[0], B: p[1]}
		}
	}
	return opts, nil
}

// sessionDir is where one table's WAL and snapshots live. Tenant and
// table names are path-escaped so arbitrary API names (slashes, dots)
// cannot traverse outside the data directory.
func sessionDir(dataDir, tenant, name string) string {
	return filepath.Join(dataDir, url.PathEscape(tenant), url.PathEscape(name))
}

// openSessionStore opens the durable store for a table being created and
// persists the creation request itself (as the session's config event),
// so recovery can rebuild the session without any out-of-band state.
// Returns (nil, nil) when the server is not running with a data dir.
func (s *Server) openSessionStore(name, tenant string, req tableRequest) (crowder.Store, error) {
	if s.opts.DataDir == "" {
		return nil, nil
	}
	dir := sessionDir(s.opts.DataDir, tenant, name)
	fl, rec, err := crowder.OpenStore(dir, crowder.StoreOptions{})
	if err != nil {
		return nil, fmt.Errorf("opening session store: %w", err)
	}
	if !rec.Empty() {
		fl.Close()
		return nil, fmt.Errorf("table %q: %w", name, errStaleSessionDir)
	}
	cfg, err := json.Marshal(req)
	if err == nil {
		err = fl.Log(&store.Meta{Config: cfg})
	}
	if err != nil {
		fl.Close()
		return nil, fmt.Errorf("persisting session config: %w", err)
	}
	return fl, nil
}

// discardSessionStore tears down the store of a create that failed after
// the store was opened. The caller holds createMu and never registered
// the name, so the directory is exclusively ours to remove.
func (s *Server) discardSessionStore(name, tenant string, st crowder.Store) {
	fl, ok := st.(*crowder.FileStore)
	if !ok || fl == nil {
		return
	}
	fl.Close()
	os.RemoveAll(sessionDir(s.opts.DataDir, tenant, name))
}

// buildSession constructs a table session from its creation request —
// either a fresh one (rec nil) or one resumed from recovered state. st
// is nil for in-memory sessions.
func (s *Server) buildSession(name, tenant string, req tableRequest, opts crowder.Options, st crowder.Store, rec *crowder.Recovered) (*session, error) {
	sess := &session{
		name: name, tenant: tenant, schema: req.Schema, jobs: make(map[int]*job),
		aggregation:  opts.Aggregation.String(),
		transitivity: req.Options.Transitivity,
		hybrid:       req.Options.Hybrid,
	}
	switch req.Options.Backend {
	case "", "simulated":
		// Oracle-driven reference simulator; nothing to wire.
	case "queue":
		lease := s.opts.Lease
		if req.Options.LeaseSeconds > 0 {
			lease = time.Duration(req.Options.LeaseSeconds) * time.Second
		}
		qopts := crowder.QueueOptions{Lease: lease}
		if st != nil {
			qopts.Journal = crowder.NewQueueJournal(st)
		}
		if rec != nil && rec.Queue != nil {
			sess.queue = crowder.RestoreQueue(qopts, rec.Queue)
		} else {
			sess.queue = crowder.NewQueueBackend(qopts)
		}
		// The tenant's HIT budget meters postings on their way in; nil
		// bucket (hit_rate 0) means unlimited and costs nothing.
		opts.Backend = &meteredBackend{
			q:      sess.queue,
			bucket: dispatch.NewBucket(req.Options.HITRate, req.Options.HITBurst),
		}
	default:
		return nil, fmt.Errorf("unknown backend %q (want \"simulated\" or \"queue\")", req.Options.Backend)
	}
	opts.Progress = func(p crowder.Progress) {
		if j := sess.current.Load(); j != nil {
			j.update(p)
		}
	}
	if st != nil {
		opts.Store = st
	}

	var rv *crowder.Resolver
	var err error
	if rec != nil {
		rv, err = crowder.RestoreResolver(rec, opts)
	} else {
		rv, err = crowder.NewResolver(crowder.NewTable(req.Schema...), opts)
	}
	if err != nil {
		return nil, err
	}
	sess.rv = rv
	return sess, nil
}

// Recover rebuilds every session found under the server's data directory
// and registers it, exactly as if the original POST /tables had just
// happened and all the logged work had been done in this process. Call
// it once, before the listener opens: recovered queue sessions re-expose
// their open HITs, outstanding claim leases resume with their original
// deadlines, and the next resolve adopts in-flight HITs instead of
// re-posting (zero re-issued HITs for pairs the crowd already judged).
// Returns the number of sessions recovered.
func (s *Server) Recover(ctx context.Context) (int, error) {
	if s.opts.DataDir == "" {
		return 0, nil
	}
	tenants, err := os.ReadDir(s.opts.DataDir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("reading data dir: %w", err)
	}
	n := 0
	for _, td := range tenants {
		if !td.IsDir() {
			continue
		}
		tables, err := os.ReadDir(filepath.Join(s.opts.DataDir, td.Name()))
		if err != nil {
			return n, fmt.Errorf("reading tenant dir %s: %w", td.Name(), err)
		}
		for _, tb := range tables {
			if err := ctx.Err(); err != nil {
				return n, err
			}
			if !tb.IsDir() {
				continue
			}
			dir := filepath.Join(s.opts.DataDir, td.Name(), tb.Name())
			name, err := url.PathUnescape(tb.Name())
			if err != nil {
				name = tb.Name()
			}
			got, err := s.recoverSession(dir, name)
			if err != nil {
				return n, fmt.Errorf("recovering %s: %w", dir, err)
			}
			if got {
				n++
			}
		}
	}
	return n, nil
}

// recoverSession replays one session directory and registers the rebuilt
// session. A directory whose log never got its config event (a crash a
// few instructions after create) holds no state worth keeping and is
// skipped.
func (s *Server) recoverSession(dir, name string) (bool, error) {
	fl, rec, err := crowder.OpenStore(dir, crowder.StoreOptions{})
	if err != nil {
		return false, err
	}
	if len(rec.Meta.Config) == 0 {
		fl.Close()
		return false, nil
	}
	var req tableRequest
	if err := json.Unmarshal(rec.Meta.Config, &req); err != nil {
		fl.Close()
		return false, fmt.Errorf("decoding persisted session config: %w", err)
	}
	opts, err := optionsFromRequest(req.Options)
	if err != nil {
		fl.Close()
		return false, err
	}
	tenant := req.Options.Tenant
	if tenant == "" {
		tenant = name
	}

	s.createMu.Lock()
	defer s.createMu.Unlock()
	sess, err := s.buildSession(name, tenant, req, opts, fl, rec)
	if err != nil {
		fl.Close()
		return false, err
	}
	if !s.reg.put(name, sess) {
		fl.Close()
		return false, fmt.Errorf("table %q already registered", name)
	}
	if sess.queue != nil {
		if err := s.dispatcher.Register(dispatch.Session{
			Tenant: tenant,
			Table:  name,
			Queue:  sess.queue,
			Weight: req.Options.Priority,
		}); err != nil {
			return false, err
		}
	}
	return true, nil
}
