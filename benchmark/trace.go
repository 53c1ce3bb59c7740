package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the module boundary. Parent is the ID of the span that caused
// it, or -1 for a root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// still times (do returns the duration) but records nothing, which is
// how the traced pass measures its own overhead.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	on    bool
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span under parent and returns its ID (-1 when off).
func (t *tracer) begin(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// do times fn as one span under parent and returns its duration in
// seconds, measured inside the span so a disabled tracer reads the same
// quantity.
func (t *tracer) do(parent int, name string, fn func()) float64 {
	id := t.begin(parent, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d.Seconds()
}

// layerTime is one span name's rollup: how often it ran, its total
// time, and its self time (total minus what its child spans cover).
type layerTime struct {
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes returns every span's self time in ns: its duration minus
// the part of its interval covered by its direct children (the union of
// their intervals, so concurrent children are not subtracted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// rollup groups spans by name.
func rollup(spans []span) map[string]*layerTime {
	self := selfTimes(spans)
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.TotalS += float64(s.EndNs-s.StartNs) / 1e9
		lt.SelfS += float64(self[s.ID]) / 1e9
	}
	return out
}

// layerSelf sums self time per layer (the span name up to the first
// dot), the granularity the README's share tables are written at.
func layerSelf(byName map[string]*layerTime) map[string]float64 {
	out := make(map[string]float64)
	for name, lt := range byName {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += lt.SelfS
	}
	return out
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Spans     []span                `json:"spans"`
	ByName    map[string]*layerTime `json:"by_name"`
	LayerSelf map[string]float64    `json:"layer_self_s"`
}

func (t *tracer) write(dir string, seed int64) (string, error) {
	spans := t.snapshot()
	byName := rollup(spans)
	tf := traceFile{Workload: t.workload, Seed: seed, Spans: spans, ByName: byName, LayerSelf: layerSelf(byName)}
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
