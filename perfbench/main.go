// Command perfbench is the FAFNIR benchmark. It runs one named workload in a
// single process with a fixed, seeded number of operations, checks every
// output against references it computes itself, and prints the metrics as
// one JSON object on the last line of standard output:
//
//	perfbench --workload lookup-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate traced
// run: it reports the per-layer metrics and writes a Chrome trace and a
// per-layer self-time table under --out. README.md defines every workload,
// operation and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// procStart is taken during package initialisation, the earliest point the
// program controls; set-up time runs from here to the first timed op.
var procStart = time.Now()

// A workload is one seeded input set driven through the program.
type workload interface {
	// setup generates the inputs for ops operations and builds a warmed
	// instance of the system under test, ready for the first timed op.
	setup(seed int64, ops int, rec *recorder) error
	// fresh replaces the instance with a newly built, identically warmed
	// one, so that a second pass starts from the state the first did.
	fresh(rec *recorder) error
	// pass drives every op once through the current instance. A non-nil rec
	// traces it: spans around each call into a layer, and calls into inner
	// layers on the same inputs beside the outer call.
	pass(rec *recorder) (*passResult, error)
	// verify checks a pass against references computed apart from the
	// program under test.
	verify(p *passResult) []check
	// layers derives the workload's per-layer metrics from a traced pass.
	layers(rec *recorder, p *passResult) (map[string]float64, error)
	close()
}

// passResult is what one pass over a workload's ops produced.
type passResult struct {
	lat     []time.Duration // wall time of each op's outer call
	failed  int
	queries int     // pooled queries (lookup, serve) or output rows (SpMV)
	cycles  float64 // simulated PE-clock cycles summed over the pass
	reads   float64 // simulated DRAM reads summed over the pass
	// digests holds one digest per op of everything the op returned, so
	// two passes over equal inputs and state can be compared exactly.
	digests []uint64
	// detail holds what the workload's own checks need from the pass.
	detail any
}

func newPass(ops int) *passResult {
	return &passResult{lat: make([]time.Duration, ops), digests: make([]uint64, ops)}
}

// check is the outcome of one correctness check.
type check struct {
	name string
	err  error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads lists the benchmark's workloads in trace-process order.
var workloads = []struct {
	name string
	pid  int
	// opsPerSecond fixes the op count of a run: seconds x opsPerSecond,
	// rounded up to whole rounds. It is sized so that the timed phase of a
	// run lasts about --seconds on a 2-vCPU host; the count never depends
	// on how fast the run goes.
	opsPerSecond int
	round        int // ops per round of the workload's cycle of inputs
	// probeOps is the op count of the small traced pass a traced run makes
	// of each workload other than the named one.
	probeOps int
	make     func(pid int) workload
}{
	{"lookup-zipf", 1, 300, len(reduceOps), 256, func(pid int) workload { return &lookupZipf{pid: pid} }},
	{"spmv-fig14", 2, 2, 1, 2, func(pid int) workload { return &spmvFig14{pid: pid} }},
	{"serve-fleet", 3, 2000, len(reduceOps), 1024, func(pid int) workload { return &serveFleet{pid: pid} }},
}

func main() {
	name := flag.String("workload", "", "workload: lookup-zipf, spmv-fig14 or serve-fleet")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "run length; fixes the op count (seconds x the workload's rate)")
	trace := flag.Int("trace", 0, "1 makes the traced run: per-layer metrics, Chrome trace and self-time table")
	out := flag.String("out", filepath.Join("perfbench", "out"), "directory for the traced run's trace and table")
	flag.Parse()

	idx := -1
	for i, w := range workloads {
		if w.name == *name {
			idx = i
		}
	}
	if idx < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload lookup-zipf|spmv-fig14|serve-fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = tracedRun(idx, *seed, *seconds, *out)
	} else {
		rep, err = timedRun(idx, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// opCount is the fixed op count of a run of the given length.
func opCount(idx, seconds int) int {
	w := workloads[idx]
	n := seconds * w.opsPerSecond
	return (n + w.round - 1) / w.round * w.round
}

// timedRun is the untraced run: set-up, one timed pass, then the checks.
func timedRun(idx int, seed int64, seconds int) (*report, error) {
	spec := workloads[idx]
	ops := opCount(idx, seconds)
	w := spec.make(spec.pid)
	defer w.close()
	if err := w.setup(seed, ops, nil); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	// A collection before the phase makes each run's timed phase start from
	// the same heap state, so the GC work inside it repeats.
	fmt.Printf("info rss_peak_mb %.1f at the end of set-up\n", peakRSSMB())
	runtime.GC()
	ph := beginPhase()
	setupS := ph.start.Sub(procStart).Seconds()
	p, err := w.pass(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	st := ph.end()
	checks := w.verify(p)

	fmt.Printf("workload %s seed %d ops %d queries %d\n", spec.name, seed, ops, p.queries)
	fmt.Printf("info ops_per_s %.1f (wall, closed loop; printed, not gated)\n", float64(ops)/st.wall.Seconds())
	if pct, v, beyond, ok := tail(p.lat); ok {
		fmt.Printf("info lat_ms_p%s %.4f (%d of %d samples beyond; printed, not gated)\n", pct, ms(v), beyond, len(p.lat))
	}
	fmt.Printf("info gc_cycles %d over the timed phase; host steal %.1f%% of busy CPU\n", st.gcs, 100*st.stealShare)
	correct := reportChecks(checks)

	n := float64(ops)
	return &report{
		Correct:   correct,
		Attempted: ops,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"setup_s":              {setupS, "s"},
			"lat_ms_p50":           {ms(median(p.lat)), "ms"},
			"cpu_ms_per_op":        {ms(st.cpu) / n, "ms"},
			"allocs_per_op":        {float64(st.mallocs) / n, "count"},
			"alloc_kb_per_op":      {float64(st.bytes) / 1024 / n, "KB"},
			"rss_peak_mb":          {peakRSSMB(), "MB"},
			"sim_cycles_per_query": {p.cycles / float64(p.queries), "cycles"},
			"sim_reads_per_query":  {p.reads / float64(p.queries), "count"},
		},
	}, nil
}

// tracedRun is the traced run. The named workload makes two passes over a
// quarter of its ops: untraced on one instance, traced on an identically
// built and warmed twin. The two must agree on every output digest (and on
// the simulated counts, where batch make-up does not depend on timing),
// since tracing only observes; their median latencies give the tracing
// overhead. Every other workload then makes one small traced pass, so that
// each traced run reports every per-layer metric, each measured on the
// inputs of the workload that exercises its layer.
func tracedRun(idx int, seed int64, seconds int, out string) (*report, error) {
	spec := workloads[idx]
	ops := opCount(idx, seconds) / 4
	ops -= ops % spec.round
	ops = max(ops, spec.round)
	rec := newRecorder()
	var checks []check
	layers := map[string]float64{}
	attempted, failed := 0, 0

	w := spec.make(spec.pid)
	defer w.close()
	if err := w.setup(seed, ops, rec); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
	}
	runtime.GC()
	ph := beginPhase()
	base, err := w.pass(nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	st := ph.end()
	if err := w.fresh(rec); err != nil {
		return nil, fmt.Errorf("%s twin: %w", spec.name, err)
	}
	traced, err := w.pass(rec)
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", spec.name, err)
	}
	for _, p := range []*passResult{base, traced} {
		checks = append(checks, w.verify(p)...)
		attempted += len(p.lat)
		failed += p.failed
	}
	checks = append(checks, check{"tracing only observes: outputs equal the untraced pass", sameDigests(base, traced)})
	if spec.name != "serve-fleet" {
		checks = append(checks, check{"tracing only observes: sim counts equal the untraced pass", sameCounts(base, traced)})
	}
	got, err := w.layers(rec, traced)
	if err != nil {
		return nil, fmt.Errorf("%s layers: %w", spec.name, err)
	}
	for k, v := range got {
		layers[k] = v
	}
	layers["go.gc_cycles_per_op"] = float64(st.gcs) / float64(len(base.lat))
	layers["telemetry.trace_overhead_pct"] = (float64(median(traced.lat))/float64(median(base.lat)) - 1) * 100

	for j, other := range workloads {
		if j == idx {
			continue
		}
		ow := other.make(other.pid)
		err := func() error {
			defer ow.close()
			if err := ow.setup(seed, other.probeOps, rec); err != nil {
				return fmt.Errorf("%s set-up: %w", other.name, err)
			}
			p, err := ow.pass(rec)
			if err != nil {
				return fmt.Errorf("%s traced pass: %w", other.name, err)
			}
			checks = append(checks, ow.verify(p)...)
			attempted += len(p.lat)
			failed += p.failed
			got, err := ow.layers(rec, p)
			if err != nil {
				return fmt.Errorf("%s layers: %w", other.name, err)
			}
			for k, v := range got {
				layers[k] = v
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d", spec.name, seed))
	if err := rec.writeChrome(stem + ".trace.json"); err != nil {
		return nil, err
	}
	nEvents, err := validateTrace(stem + ".trace.json")
	checks = append(checks, check{"trace passes fafnir-trace validate", err})
	table := rec.selfTimeTable()
	if err := os.WriteFile(stem+".layers.md", []byte(table), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d traced ops %d; trace %s.trace.json (%d events)\n", spec.name, seed, ops, stem, nEvents)
	fmt.Print(table)
	correct := reportChecks(checks)

	metrics := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		v, ok := layers[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		metrics[name] = metric{v, unit}
	}
	return &report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"embedding.gen_us_per_query":   "us",
	"embedding.row_ns":             "ns",
	"batch.build_us":               "us",
	"batch.unique_ratio":           "ratio",
	"fafnir.tree_us":               "us",
	"fafnir.timed_us":              "us",
	"fafnir.verify_us":             "us",
	"fafnir.pe_outputs_per_batch":  "count",
	"fafnir.max_occupancy":         "count",
	"dram.read_ns":                 "ns",
	"dram.row_hit_ratio":           "ratio",
	"dram.stream_ns_per_kb":        "ns/KB",
	"sparse.gen_s":                 "s",
	"sparse.chunk_us":              "us",
	"sparse.chunk_allocs":          "count",
	"spmv.multiply_ms":             "ms",
	"spmv.merge_iters":             "count",
	"twostep.multiply_ms":          "ms",
	"serve.http_us":                "us",
	"serve.submit_us":              "us",
	"serve.queries_per_batch":      "count",
	"serve.queue_us_p50":           "us",
	"cache.hit_ratio":              "ratio",
	"cache.get_ns":                 "ns",
	"router.fleet_lookup_us":       "us",
	"router.shard_imbalance":       "ratio",
	"rnet.reduce_us":               "us",
	"rnet.critical_path_cycles":    "cycles",
	"go.gc_cycles_per_op":          "count",
	"telemetry.trace_overhead_pct": "%",
}

func sameDigests(a, b *passResult) error {
	for i := range a.digests {
		if a.digests[i] != b.digests[i] {
			return fmt.Errorf("op %d differs", i)
		}
	}
	return nil
}

func sameCounts(a, b *passResult) error {
	if a.cycles != b.cycles || a.reads != b.reads || a.queries != b.queries {
		return fmt.Errorf("untraced %v cycles / %v reads / %d queries, traced %v / %v / %d",
			a.cycles, a.reads, a.queries, b.cycles, b.reads, b.queries)
	}
	return nil
}

// reportChecks prints one line per check and reports whether all passed.
func reportChecks(checks []check) bool {
	ok := true
	sort.SliceStable(checks, func(i, j int) bool { return checks[i].name < checks[j].name })
	for i, c := range checks {
		if i > 0 && c.name == checks[i-1].name && c.err == nil {
			continue // a check repeated over several passes prints once when it holds
		}
		if c.err != nil {
			ok = false
			fmt.Printf("check %s: FAIL: %v\n", c.name, c.err)
		} else {
			fmt.Printf("check %s: ok\n", c.name)
		}
	}
	return ok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// errList collects the failures of one check, keeping the first few.
type errList struct {
	n     int
	first []string
}

func (e *errList) add(format string, args ...any) {
	e.n++
	if len(e.first) < 3 {
		e.first = append(e.first, fmt.Sprintf(format, args...))
	}
}

func (e *errList) err() error {
	if e.n == 0 {
		return nil
	}
	return fmt.Errorf("%d failures, first: %s", e.n, strings.Join(e.first, "; "))
}
