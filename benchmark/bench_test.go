package main

// Host-independent smoke test: every workload at toy size, both passes,
// asserting invariants only — names, correctness, span nesting. No
// timing or byte threshold appears here, so the test reads the same at
// GOMAXPROCS 1, 2 and 4.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

func metricNames(ms []manifestMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func reportNames(rep *report) []string {
	out := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestManifestMatchesRegistry: BENCHMARK.json and the registry in
// metrics.go name the same workloads and metrics with the same units,
// directions and bounds.
func TestManifestMatchesRegistry(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, registry %q", i, m.Workloads[i].Name, w.Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(m.EndToEnd) != len(e2eDefs) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the registry", len(m.EndToEnd), len(e2eDefs))
	}
	for i, d := range e2eDefs {
		if got := m.EndToEnd[i]; got != (manifestMetric{d.Name, d.Unit, d.Better, d.Bound}) {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, registry %+v", i, got, d)
		}
	}
	if len(m.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the registry", len(m.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if got := m.PerLayer[i]; got != (manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}) {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, registry %+v", i, got, d)
		}
		if layer, _, ok := strings.Cut(d.Name, "."); !ok || layer == "" {
			t.Errorf("per-layer metric %q does not start with its layer", d.Name)
		}
		if len(d.On) == 0 {
			t.Errorf("per-layer metric %q is measured on no workload", d.Name)
		}
	}
	// The one bound the driver holds a name to on every workload is no
	// tighter than any per-workload bound the registry holds it to.
	for _, g := range gateDefs {
		for _, d := range e2eDefs {
			for w, bound := range g.Bound {
				if g.Kind == gateRel && d.Name == g.Alias && bound > d.Bound {
					t.Errorf("%s@%s is held to %.2f, looser than %s's %.2f in BENCHMARK.json", g.Name, w, bound, d.Name, d.Bound)
				}
			}
		}
	}
}

// TestWorkloadsSmoke runs each workload's two passes at toy size.
func TestWorkloadsSmoke(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	// Keep a developer's own out/ (reports, traces) out of the test's way.
	saved := outDir
	outDir = t.TempDir()
	t.Cleanup(func() { outDir = saved })
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue // the traced pass is the slower half
			}
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := execute(w.Name, 1, 0.05, traced, toySizes)
				if err != nil {
					t.Fatal(err)
				}
				if rep.OpsFailed != 0 || !rep.Correct || rep.OpsAttempted == 0 {
					t.Errorf("ops attempted=%d failed=%d correct=%v: %v", rep.OpsAttempted, rep.OpsFailed, rep.Correct, rep.Failures)
				}
				want := metricNames(m.EndToEnd)
				if traced {
					want = metricNames(m.PerLayer)
				}
				if got := reportNames(rep); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("printed metrics\n%v\nwant the names in BENCHMARK.json\n%v", got, want)
				}
				for _, g := range gateDefs {
					_, listed := g.Bound[w.Name]
					if _, printed := rep.Gated[g.Name]; printed != (listed && !traced) {
						t.Errorf("gated metric %s: printed=%v, the registry lists it on %s: %v", g.Name, printed, w.Name, listed)
					}
				}
				if !strings.Contains(resultLine(rep), `"attempted":`) {
					t.Errorf("result line lacks the driver's keys: %s", resultLine(rep))
				}
				if traced {
					checkSpans(t, rep)
				}
			})
		}
	}
}

// checkSpans: the trace file exists, every span closes after it opens,
// lies inside its parent, and has a non-negative self time.
func checkSpans(t *testing.T, rep *report) {
	t.Helper()
	b, err := os.ReadFile(rep.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"layer_self_s"`)) {
		t.Errorf("%s has no layer rollup", rep.TraceFile)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	self := selfTimes(tf.Spans)
	layers := map[string]bool{}
	for _, s := range tf.Spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		layers[layer] = true
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			p := tf.Spans[s.Parent]
			if s.Parent >= s.ID || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %d %s [%d,%d] is not nested in its parent %d %s [%d,%d]", s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
			}
		}
		if self[s.ID] < 0 {
			t.Errorf("span %d %s has negative self time %d", s.ID, s.Name, self[s.ID])
		}
		if s.Workload != rep.Workload {
			t.Errorf("span %d carries workload %q", s.ID, s.Workload)
		}
	}
	// Every layer the workload reaches has a span; a layer it does not
	// reach was not measured.
	for _, d := range layerDefs {
		layer, _, _ := strings.Cut(d.Name, ".")
		reached := slices.Contains(d.On, rep.Workload)
		if reached && layer != "bench" && !layers[layer] {
			t.Errorf("no span recorded for layer %q", layer)
		}
		if !reached && rep.Metrics[d.Name].Value != 0 {
			t.Errorf("%s = %v on a workload the registry says does not reach it", d.Name, rep.Metrics[d.Name].Value)
		}
	}
}

// TestCompareFlagsRegression: -compare passes a ledger against itself,
// exits non-zero when a rate's median falls by more than its bound or a
// count rises at a seed, and on another host leaves the rate unresolved
// but still holds the count.
func TestCompareFlagsRegression(t *testing.T) {
	base := func(work, hits float64, cpus int) *ledger {
		l := &ledger{}
		for _, w := range workloadDefs {
			rep := &report{Workload: w.Name, Seed: 1, Sizes: toySizes, Seconds: 1, OpsAttempted: 10,
				Host:    fingerprint{NumCPU: cpus, GoMaxProcs: cpus, GoVersion: "go"},
				Metrics: map[string]metricValue{}, Gated: map[string]metricValue{}}
			for _, d := range e2eDefs {
				rep.Metrics[d.Name] = metricValue{Value: 100, Unit: d.Unit}
			}
			rep.Metrics["work_per_s"] = metricValue{Value: work, Unit: "1/s"}
			for _, g := range gateDefs {
				if _, ok := g.Bound[w.Name]; ok {
					rep.Gated[g.Name] = metricValue{Value: rep.Metrics[g.Alias].Value, Unit: g.Unit}
				}
			}
			if _, ok := rep.Gated["crowd_hits_per_1k_records"]; ok {
				rep.Gated["crowd_hits_per_1k_records"] = metricValue{Value: hits, Unit: "HITs"}
			}
			l.Reports = append(l.Reports, rep)
		}
		return l
	}
	dir := t.TempDir()
	write := func(name string, l *ledger) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, l); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", base(100, 40, 2))
	for _, tc := range []struct {
		name  string
		b     *ledger
		code  int
		wants []string
	}{
		{"itself", base(100, 40, 2), 0, nil},
		{"halved rate", base(50, 40, 2), 1, []string{"join_records_per_s", "REGRESSION"}},
		{"one more HIT", base(100, 41, 2), 1, []string{"crowd_hits_per_1k_records", "REGRESSION"}},
		{"one HIT fewer", base(100, 39, 2), 0, []string{"improved"}},
		{"halved rate, other host", base(50, 40, 4), 0, []string{"unresolved (host"}},
		{"one more HIT, other host", base(100, 41, 4), 1, []string{"unresolved (host", "REGRESSION"}},
	} {
		var out bytes.Buffer
		code := compareLedgers(&out, a, write("b.json", tc.b))
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d:\n%s", tc.name, code, tc.code, out.String())
		}
		for _, want := range tc.wants {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, out.String())
			}
		}
	}
}
