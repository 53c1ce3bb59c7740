package main

// -all (with -runs N) and -compare: running every workload in fresh
// processes into one ledger file, printing the run-to-run spread, and
// holding two ledgers against the bounds — BENCHMARK.json's for the
// driver's five names, the registry's per-workload ones for ISSUE 11's.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// ledger is the file -all writes and -compare reads.
type ledger struct {
	Reports []*report `json:"reports"`
	// Spread summarises Reports per workload and metric.
	Spread []spreadRow `json:"spread"`
}

// spreadRow is one metric on one workload over the ledger's runs.
type spreadRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	// IQRShare is (q3-q1)/median, the quantity a bound must exceed;
	// MaxDev is the largest |value-median|/median.
	IQRShare float64 `json:"iqr_share"`
	MaxDev   float64 `json:"max_rel_dev"`
}

// manifest is the part of BENCHMARK.json the harness reads back.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readManifest finds BENCHMARK.json beside or above the working
// directory (the harness runs from the root, its test from benchmark/).
func readManifest() (*manifest, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// value looks a metric up under its driver-facing or its gated name.
func (rep *report) value(name string) (float64, bool) {
	if mv, ok := rep.Metrics[name]; ok {
		return mv.Value, true
	}
	mv, ok := rep.Gated[name]
	return mv.Value, ok
}

// values collects each quantity's values per workload, in ledger order:
// under its gated name where the report has one, else under the
// driver-facing name.
func (l *ledger) values() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, rep := range l.Reports {
		if out[rep.Workload] == nil {
			out[rep.Workload] = make(map[string][]float64)
		}
		gatedAs := make(map[string]bool)
		for _, g := range gateDefs {
			if _, ok := rep.Gated[g.Name]; ok {
				gatedAs[g.Alias] = true
			}
		}
		for name, mv := range rep.Gated {
			out[rep.Workload][name] = append(out[rep.Workload][name], mv.Value)
		}
		for name, mv := range rep.Metrics {
			if !gatedAs[name] {
				out[rep.Workload][name] = append(out[rep.Workload][name], mv.Value)
			}
		}
	}
	return out
}

func (l *ledger) summarize() {
	l.Spread = nil
	vals := l.values()
	for _, w := range workloadDefs {
		names := make([]string, 0, len(vals[w.Name]))
		for n := range vals[w.Name] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			xs := vals[w.Name][n]
			row := spreadRow{Workload: w.Name, Metric: n, Unit: units[n], Runs: len(xs), Median: median(xs)}
			row.Q1, row.Q3 = quartiles(xs)
			row.IQRShare = iqrShare(xs)
			for _, x := range xs {
				row.MaxDev = max(row.MaxDev, ratio(math.Abs(x-row.Median), row.Median))
			}
			l.Spread = append(l.Spread, row)
		}
	}
}

func printSpread(w io.Writer, rows []spreadRow) {
	fmt.Fprintf(w, "%-14s %-34s %5s %14s %14s %14s %8s %8s\n", "workload", "metric", "runs", "median", "q1", "q3", "iqr%", "maxdev%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-34s %5d %14.4f %14.4f %14.4f %8.2f %8.2f\n",
			r.Workload, r.Metric+" ["+r.Unit+"]", r.Runs, r.Median, r.Q1, r.Q3, 100*r.IQRShare, 100*r.MaxDev)
	}
}

// runAll executes every workload runs times, each run a fresh process
// of this same binary so peak RSS is per workload, and writes the
// ledger. Run i uses seed+i: the spread then covers the inputs too, as
// the driver's does.
func runAll(seed int64, seconds float64, traced bool, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err.Error())
	}
	var l ledger
	failed := false
	for i := 0; i < runs; i++ {
		for _, w := range workloadDefs {
			tmp := filepath.Join(mkOutDir(), fmt.Sprintf("run-%s-%d.json", w.Name, i))
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-o", tmp}
			if traced {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", w.Name, i, err)
				failed = true
			}
			b, err := os.ReadFile(tmp)
			if err != nil {
				continue // the child died before reporting; already counted
			}
			os.Remove(tmp)
			var rep report
			if err := json.Unmarshal(b, &rep); err != nil {
				fatal(fmt.Sprintf("%s: %v", tmp, err))
			}
			l.Reports = append(l.Reports, &rep)
		}
	}
	l.summarize()
	if err := writeJSON(out, &l); err != nil {
		fatal(err.Error())
	}
	printSpread(os.Stdout, l.Spread)
	fmt.Fprintf(os.Stderr, "ledger written to %s\n", out)
	if failed {
		return 1
	}
	return 0
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(l.Reports) == 0 {
		// A single workload's -o file is a ledger of one.
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil || rep.Workload == "" {
			return nil, fmt.Errorf("%s: neither a ledger nor a report", path)
		}
		l.Reports = []*report{&rep}
	}
	return &l, nil
}

// failedShare is failed operations over attempted, per workload.
func (l *ledger) failedShare() map[string]float64 {
	att, fail := map[string]int{}, map[string]int{}
	for _, rep := range l.Reports {
		att[rep.Workload] += rep.OpsAttempted
		fail[rep.Workload] += rep.OpsFailed
	}
	out := make(map[string]float64)
	for w := range att {
		out[w] = ratio(float64(fail[w]), float64(att[w]))
	}
	return out
}

func sameHost(a, b fingerprint) bool {
	return a.NumCPU == b.NumCPU && a.GoMaxProcs == b.GoMaxProcs && a.GoVersion == b.GoVersion
}

// check is one row of a comparison: a metric on a workload with the
// bound it is held to.
type check struct {
	workload, name, better, kind string
	bound                        float64
}

// checks lists, per workload, its gated metrics under the registry's
// per-workload bounds, then whichever of BENCHMARK.json's end-to-end
// metrics no gated metric of the workload is printed as, under
// BENCHMARK.json's bound. Each quantity is held to one bound: the
// workload's own where the registry has one.
func checks(m *manifest) []check {
	var out []check
	for _, wd := range workloadDefs {
		covered := make(map[string]bool)
		for _, g := range gateDefs {
			if bound, ok := g.Bound[wd.Name]; ok {
				out = append(out, check{wd.Name, g.Name, g.Better, g.Kind, bound})
				covered[g.Alias] = true
			}
		}
		for _, em := range m.EndToEnd {
			if !covered[em.Name] {
				out = append(out, check{wd.Name, em.Name, em.Better, gateRel, em.Bound})
			}
		}
	}
	return out
}

// bySeed maps each seed to the metric's value in the (last) report of
// the workload taken at it.
func (l *ledger) bySeed(workload, name string) map[int64]float64 {
	out := make(map[int64]float64)
	for _, rep := range l.Reports {
		if v, ok := rep.value(name); ok && rep.Workload == workload {
			out[rep.Seed] = v
		}
	}
	return out
}

// compareLedgers prints, per workload and end-to-end metric, b against a
// and the verdict under the metric's bound. It returns the exit code: 1
// on any regression or a higher failed-operation share.
//
// A timing is compared by medians, its bound a share of a's median. It
// is unresolved — never "unchanged" — when the two ledgers were taken
// on different hosts or sizes, or when a's own run-to-run spread is wider
// than the bound (unless every run of b beats every run of a). A count
// or F1 repeats exactly for a seed, so it is compared run by run at equal
// seeds, on any host, and the worst seed gives the verdict.
func compareLedgers(w io.Writer, pathA, pathB string) int {
	m, err := readManifest()
	if err != nil {
		fatal(err.Error())
	}
	a, err := readLedger(pathA)
	if err != nil {
		fatal(err.Error())
	}
	b, err := readLedger(pathB)
	if err != nil {
		fatal(err.Error())
	}
	sameSizes, sameHosts := make(map[string]bool), make(map[string]bool)
	for _, ra := range a.Reports {
		for _, rb := range b.Reports {
			if ra.Workload == rb.Workload {
				sameSizes[ra.Workload] = ra.Sizes == rb.Sizes
				sameHosts[ra.Workload] = sameHost(ra.Host, rb.Host) && ra.Seconds == rb.Seconds
			}
		}
	}
	va, vb := a.values(), b.values()
	exit := 0
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %9s %9s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, c := range checks(m) {
		xa, xb := va[c.workload][c.name], vb[c.workload][c.name]
		if len(xa) == 0 || len(xb) == 0 {
			continue
		}
		ma, mb := median(xa), median(xb)
		sign := 1.0
		if c.better == "higher" {
			sign = -1
		}
		// worse is the change in the bad direction, in the bound's terms.
		var worse float64
		var change, bound string
		verdict := "ok"
		switch {
		case !sameSizes[c.workload]:
			verdict = "unresolved (sizes differ)"
		case c.kind == gateRel:
			worse = sign * ratio(mb-ma, ma)
			change, bound = fmt.Sprintf("%+.2f%%", 100*ratio(mb-ma, ma)), fmt.Sprintf("%.1f%%", 100*c.bound)
			switch {
			case !sameHosts[c.workload]:
				verdict = "unresolved (host fingerprint or -seconds differ)"
			case len(xa) >= 4 && iqrShare(xa) > c.bound && !dominates(xb, xa, c.better):
				verdict = "unresolved (spread of a exceeds the bound)"
			}
		default:
			sa, sb := a.bySeed(c.workload, c.name), b.bySeed(c.workload, c.name)
			common := 0
			worse = math.Inf(-1)
			for seed, x := range sa {
				if y, ok := sb[seed]; ok {
					common++
					worse = max(worse, sign*(y-x))
				}
			}
			change, bound = fmt.Sprintf("%+.4g", sign*worse), fmt.Sprintf("%.4g", c.bound)
			if common == 0 {
				verdict = "unresolved (no seed in common)"
			}
		}
		if verdict == "ok" {
			switch {
			case worse > c.bound:
				verdict = "REGRESSION"
				exit = 1
			case worse < -c.bound:
				verdict = "improved"
			}
		}
		fmt.Fprintf(w, "%-14s %-26s %14.4f %14.4f %9s %9s  %s\n", c.workload, c.name, ma, mb, change, bound, verdict)
	}
	fa, fb := a.failedShare(), b.failedShare()
	for _, wd := range workloadDefs {
		if fb[wd.Name] > fa[wd.Name] {
			fmt.Fprintf(w, "%-14s failed-operation share rose from %.6f to %.6f: REGRESSION\n", wd.Name, fa[wd.Name], fb[wd.Name])
			exit = 1
		}
	}
	return exit
}

func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// dominates reports whether every value of xs reads better than every
// value of ys.
func dominates(xs, ys []float64, better string) bool {
	if better == "higher" {
		return quantile(xs, 0) > quantile(ys, 1)
	}
	return quantile(xs, 1) < quantile(ys, 0)
}
