// Command benchmark is the repository's one performance ledger: four
// named workloads, each run in its own process, printing named
// end-to-end metrics (untraced pass) or named per-layer metrics (traced
// pass) and checking that every output is correct. See README.md.
//
//	go run ./benchmark -workload batch-cluster -seed 1
//	go run ./benchmark -workload session-delta -trace 1
//	go run ./benchmark -all -runs 5
//	go run ./benchmark -compare benchmark/out/a.json benchmark/out/b.json
//
// The last line of standard output is always the one-line result object
// the driver reads ({"correct","attempted","failed","metrics"}); the
// full report — host fingerprint, frozen sizes, sample counts, the
// workload's own named numbers — goes to the -o file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"
)

// outDir receives reports, traces and the scratch directories of the
// durable daemons; everything the harness writes stays under it. The
// harness runs from the repository root.
var outDir = filepath.Join("benchmark", "out")

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the host a number was taken on. Two reports
// compare only when their fingerprints (commit aside) agree.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// report is the full record of one workload run.
type report struct {
	Workload string      `json:"workload"`
	Trace    bool        `json:"trace"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Host     fingerprint `json:"host"`
	// Clients is the number of closed-loop client goroutines (and
	// connections) the load came from; never more than nproc.
	Clients int    `json:"clients"`
	Loop    string `json:"loop"`
	Sizes   sizes  `json:"sizes"`

	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Correct      bool     `json:"correct"`
	Failures     []string `json:"failures,omitempty"`

	// Metrics holds exactly the registry's end-to-end names (untraced)
	// or per-layer names (traced): what the driver reads.
	Metrics map[string]metricValue `json:"metrics"`
	// Gated holds the workload's rows of gateDefs (untraced): ISSUE 11's
	// per-workload end-to-end names, which -compare holds to their own
	// per-workload bounds.
	Gated map[string]metricValue `json:"gated,omitempty"`
	// Detail holds other numbers worth reading beside them.
	Detail map[string]metricValue `json:"detail,omitempty"`
	// Samples states how many samples each median or tail rests on.
	Samples   map[string]int `json:"samples,omitempty"`
	WallS     float64        `json:"wall_s"`
	TraceFile string         `json:"trace_file,omitempty"`
}

// run is the context one workload executes in.
type run struct {
	seed    int64
	seconds float64
	sz      sizes
	clients int
	tmp     string
	tr      *tracer

	mu  sync.Mutex
	rep *report
}

// op counts one operation; a failed one records why (first 20 kept).
func (r *run) op(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rep.OpsAttempted++
	if !ok {
		r.rep.OpsFailed++
		if len(r.rep.Failures) < 20 {
			r.rep.Failures = append(r.rep.Failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range e2eDefs {
		m[d.Name] = d.Unit
	}
	for _, d := range gateDefs {
		m[d.Name] = d.Unit
	}
	for _, d := range layerDefs {
		m[d.Name] = d.Unit
	}
	return m
}()

var layerByName = func() map[string]layerDef {
	m := make(map[string]layerDef)
	for _, d := range layerDefs {
		m[d.Name] = d
	}
	return m
}()

// set records a driver-facing metric. An unknown name, or a per-layer
// metric measured on a workload the registry says does not reach the
// layer, is a bug in a workload. A per-layer metric set during the
// untraced pass (its correctness checks reuse the replay) is dropped:
// that pass reports end-to-end metrics only.
func (r *run) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	d, layer := layerByName[name]
	if layer && !slices.Contains(d.On, r.rep.Workload) {
		panic("benchmark: " + name + " measured on " + r.rep.Workload + ", which the registry says does not reach it")
	}
	if layer != r.rep.Trace {
		return
	}
	r.mu.Lock()
	r.rep.Metrics[name] = metricValue{Value: v, Unit: unit}
	r.mu.Unlock()
}

// gate records one of the workload's gated end-to-end metrics, and the
// same value under the driver-facing name it is printed as, if any.
func (r *run) gate(name string, v float64) {
	for _, d := range gateDefs {
		if d.Name != name {
			continue
		}
		if _, ok := d.Bound[r.rep.Workload]; !ok {
			break
		}
		r.mu.Lock()
		r.rep.Gated[name] = metricValue{Value: v, Unit: d.Unit}
		r.mu.Unlock()
		if d.Alias != "" {
			r.set(d.Alias, v)
		}
		return
	}
	panic("benchmark: " + name + " is not a gated metric of " + r.rep.Workload)
}

func (r *run) detail(name, unit string, v float64) {
	r.mu.Lock()
	r.rep.Detail[name] = metricValue{Value: v, Unit: unit}
	r.mu.Unlock()
}

func (r *run) samples(name string, n int) {
	r.mu.Lock()
	r.rep.Samples[name] = n
	r.mu.Unlock()
}

// workloadImpl binds a workload name to its two passes.
type workloadImpl struct {
	e2e   func(*run) error
	trace func(*run) error
}

var workloads = map[string]workloadImpl{
	wBatch:   {batchE2E, batchTrace},
	wSession: {sessionE2E, sessionTrace},
	wQueue:   {queueE2E, queueTrace},
	wScale:   {scaleE2E, scaleTrace},
}

// execute runs one pass of one workload in this process and returns
// its report. A workload error (as opposed to a failed operation) means
// the harness itself could not proceed.
func execute(name string, seed int64, seconds float64, trace bool, sz sizes) (*report, error) {
	impl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := os.MkdirTemp(mkOutDir(), "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	r := &run{
		seed: seed, seconds: seconds, sz: sz,
		clients: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		tmp:     tmp, tr: newTracer(name),
		rep: &report{
			Workload: name, Trace: trace, Seed: seed, Seconds: seconds,
			Host: hostFingerprint(), Loop: "closed", Sizes: sz,
			Metrics: map[string]metricValue{}, Gated: map[string]metricValue{}, Detail: map[string]metricValue{}, Samples: map[string]int{},
		},
	}
	r.rep.Clients = r.clients
	start := time.Now()
	if trace {
		// The driver reads every per-layer name on every workload; a layer
		// the workload's inputs do not reach (layerDef.On) stays at 0.
		for _, d := range layerDefs {
			r.rep.Metrics[d.Name] = metricValue{Value: 0, Unit: d.Unit}
		}
		err = impl.trace(r)
	} else {
		err = impl.e2e(r)
		r.gate("peak_rss_mb", peakRSSMB())
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r.rep.WallS = time.Since(start).Seconds()
	if trace {
		path, werr := r.tr.write(outDir, seed)
		if werr != nil {
			return nil, werr
		}
		r.rep.TraceFile = path
	}
	r.rep.Correct = r.rep.OpsFailed == 0
	return r.rep, nil
}

func mkOutDir() string {
	_ = os.MkdirAll(outDir, 0o755)
	return outDir
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the one-line object the driver parses.
func resultLine(rep *report) string {
	b, _ := json.Marshal(map[string]any{
		"correct":   rep.Correct,
		"attempted": rep.OpsAttempted,
		"failed":    rep.OpsFailed,
		"metrics":   rep.Metrics,
	})
	return string(b)
}

// summarize prints the report for a reader on standard error, leaving
// standard output to the result line.
func summarize(rep *report) {
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v clients=%d (%s loop) cpus=%d gomaxprocs=%d %s commit=%s wall=%.1fs\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Clients, rep.Loop, rep.Host.NumCPU, rep.Host.GoMaxProcs, rep.Host.GoVersion, rep.Host.Commit, rep.WallS)
	for _, w := range workloadDefs {
		if w.Name == rep.Workload {
			fmt.Fprintf(os.Stderr, "  one operation: %s\n", w.Op)
		}
	}
	unreached := 0
	for i, group := range []map[string]metricValue{rep.Metrics, rep.Gated, rep.Detail} {
		names := make([]string, 0, len(group))
		for n := range group {
			_, printed := rep.Metrics[n]
			if d, layer := layerByName[n]; layer && !slices.Contains(d.On, rep.Workload) {
				unreached++
			} else if i == 0 || !printed {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	if unreached > 0 {
		fmt.Fprintf(os.Stderr, "  (%d per-layer metrics of layers this workload does not reach are 0 in the result line)\n", unreached)
	}
	fmt.Fprintf(os.Stderr, "  ops attempted=%d failed=%d correct=%v\n", rep.OpsAttempted, rep.OpsFailed, rep.Correct)
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", f)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: batch-cluster, session-delta, crowd-queue or scale-join")
		seed     = flag.Int64("seed", 1, "the only source of input variation: feeds internal/dataset generators and Options.Seed")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long the timed loops measure")
		// A value flag, not a bool: the driver passes "--trace 0|1" as two
		// arguments, which flag.Bool would read as a positional.
		trace   = flag.String("trace", "0", "1 runs the traced per-layer pass, 0 the untraced end-to-end pass")
		out     = flag.String("o", "", "write the full report here (default benchmark/out/<workload>[-trace].json, or benchmark/out/ledger.json with -all)")
		all     = flag.Bool("all", false, "run every workload, each in a fresh process")
		runs    = flag.Int("runs", 1, "with -all: repeat each workload this many times and print the spread")
		compare = flag.Bool("compare", false, "compare two ledgers: -compare a.json b.json")
	)
	flag.Parse()
	if *trace != "0" && *trace != "1" {
		fatal("-trace takes 0 or 1")
	}
	traced := *trace == "1"

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *all:
		if *out == "" {
			*out = filepath.Join(outDir, "ledger.json")
		}
		os.Exit(runAll(*seed, *seconds, traced, *runs, *out))
	case *workload == "":
		fatal("one of -workload, -all or -compare is required")
	}

	rep, err := execute(*workload, *seed, *seconds, traced, fullSizes)
	if err != nil {
		fatal(err.Error())
	}
	if *out == "" {
		name := *workload
		if traced {
			name += "-trace"
		}
		*out = filepath.Join(outDir, name+".json")
	}
	if err := writeJSON(*out, rep); err != nil {
		fatal(err.Error())
	}
	summarize(rep)
	fmt.Println(resultLine(rep))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(2)
}
