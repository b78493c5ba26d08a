// Command carbonbench is the repository's end-to-end benchmark. It drives
// the paper's slotted closed loop — Algorithm 1 places a model on every
// edge, the edges serve their stream, Algorithm 2 trades allowances — on
// one of four fleet workloads and reports what an operator sees: edge-slots
// served per second, time per slot, set-up time and peak memory. A traced
// run (--trace 1) instead reports per-layer metrics timed from outside,
// through the interfaces the program accepts (policy and trader factories,
// the model zoo, edge runtimes, model sources, region slot hooks and
// wrapped connections).
//
//	carbonbench --workload sim-fleet --seed 1 --seconds 10 --trace 0
//	carbonbench --workload all --seed 1 --seconds 10 --trace 0
//
// Every run checks its outputs: each rep's summary digest must equal the
// digest recorded in digests.json for the workload and seed, or, for a seed
// with no recorded digest, the digest of an independent in-process replay.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the metric
// table and the reason each workload exists.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// watchdogAfter bounds a run: the benchmark must exit within 180 seconds.
const watchdogAfter = 170 * time.Second

// minMeasuredReps is the number of measured reps a run makes even when
// --seconds has already passed.
const minMeasuredReps = 3

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"sim-fleet", "regional-wire", "regional-churn", "edge-nn"}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"edge_slots_per_s", "edge-slots/s"},
	{"slot_ms_p50", "ms"},
	{"slot_ms_p90", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics a traced run reports, on every workload; a layer
// a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"deploy.wire_bytes_per_edge_slot", "B/edge-slot"},
	{"deploy.region_fanout_ms_p50", "ms"},
	{"deploy.region_collect_ms_p50", "ms"},
	{"deploy.root_turnaround_ms_p50", "ms"},
	{"deploy.edge_wait_share", "ratio"},
	{"deploy.ckpt_mb_shipped", "MB"},
	{"deploy.resume_ms_p50", "ms"},
	{"deploy.region_resumes", "count"},
	{"deploy.retries", "count"},
	{"nn.run_slot_us_per_sample", "us/sample"},
	{"nn.load_model_ms_p50", "ms"},
	{"nn.load_models", "count"},
	{"nn.int8_forward_us_per_sample", "us/sample"},
	{"nn.f32_forward_us_per_sample", "us/sample"},
	{"nn.mflop_per_sample", "MFLOP/sample"},
	{"nn.forward_share_of_run_slot", "ratio"},
	{"models.zoo_train_s", "s"},
	{"models.batchloss_ns_per_edge_slot", "ns/edge-slot"},
	{"bandit.select_ns_per_edge_slot", "ns/edge-slot"},
	{"bandit.update_ns_per_edge_slot", "ns/edge-slot"},
	{"trading.decide_us_per_slot", "us/slot"},
	{"engine.rest_ms_per_slot", "ms/slot"},
	{"engine.shard_speedup_1to2", "ratio"},
	{"setup.scenario_s", "s"},
	{"setup.admit_s", "s"},
	{"go.alloc_bytes_per_edge_slot", "B/edge-slot"},
	{"go.allocs_per_edge_slot", "allocs/edge-slot"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"ladder.explained_share", "ratio"},
}

// repResult is what one complete set-up and run of a workload observed.
type repResult struct {
	// attempted is the rep's edge-slots (edges × horizon); dropped counts
	// those the run's summary reports unserved.
	attempted, dropped int
	// setupNS runs from the rep's start to its first slot start; runNS from
	// there to the end of the run, during which served edge-slots completed.
	setupNS, runNS int64
	served         int
	// starts holds the slot-start timestamps the slot-time samples come from.
	starts []int64
	digest string
	// layers holds a traced rep's per-layer values.
	layers map[string]float64
	// artifacts carries what a workload's post-run steps reuse (a trained
	// zoo, the run's model selections).
	artifacts any
}

func (r *repResult) rate() float64 { return float64(r.served) / (float64(r.runNS) / 1e9) }

// tracer is a traced rep's span store and identity.
type tracer struct {
	spans *spanLog
	rep   int32
}

// workload is one benchmark workload.
type workload interface {
	// rep runs one complete set-up and run on inputs derived from seed; tr
	// is nil for an untraced rep.
	rep(seed int64, tr *tracer) (*repResult, error)
	// oracle computes the expected summary digest for seed by an
	// independent in-process path; last is the final rep, whose artifacts
	// it may reuse.
	oracle(seed int64, last *repResult) (string, error)
	// digestTable names the digests.json table the workload is checked
	// against.
	digestTable() string
	// spanCapacity bounds the spans one traced rep records.
	spanCapacity() int
	// edgeSlots is the edge-slots one rep attempts.
	edgeSlots() int
}

// tracedExtras is implemented by workloads whose traced run adds per-layer
// metrics measured outside the reps (a kernel rung, a 1-shard rep).
type tracedExtras interface {
	extras(seed int64, untraced, traced []*repResult) (map[string]float64, error)
}

func newWorkload(name string, smoke bool) (workload, error) {
	switch name {
	case "sim-fleet":
		if smoke {
			return &simFleet{edges: 64, horizon: 12, shards: 2, meanPeak: 20}, nil
		}
		return &simFleet{edges: 10000, horizon: 120, shards: 2, meanPeak: 20}, nil
	case "regional-wire", "regional-churn":
		churn := name == "regional-churn"
		if smoke {
			return &regional{edges: 24, regions: 2, horizon: 24, churn: churn}, nil
		}
		return &regional{edges: 2000, regions: 2, horizon: 110, churn: churn}, nil
	case "edge-nn":
		if smoke {
			return &edgeNN{edges: 2, horizon: 12, samples: 16, trainN: 60, epochs: 1, pool: 80}, nil
		}
		return &edgeNN{edges: 2, horizon: 110, samples: 256, trainN: 600, epochs: 2, pool: 300}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

// options are the settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// want is the digest recorded in digests.json for the workload and
	// seed; when empty, every rep is checked against the in-process oracle.
	want string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("carbonbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are derived from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep starting new reps")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.outDir, "out", "", "directory for span dumps (none when empty)")
	record := false
	fs.BoolVar(&record, "record", false, "print the oracle's digest for --workload and --seed (the digests.json entry) and exit")
	compare := false
	fs.BoolVar(&compare, "compare", false, "compare two saved results: carbonbench --compare <base.json> <new.json>")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "carbonbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "carbonbench: --compare needs two result files")
			return 2
		}
		if err := compareRecords(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "carbonbench:", err)
			return 1
		}
		return 0
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	// Load comes from this one process on at most two cores: sim-fleet's
	// two shards, or the deploy tiers' goroutines.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	// A wedged run must still end, and without a result line.
	watchdog := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintf(stderr, "carbonbench: no result after %v; aborting\n", watchdogAfter)
		os.Exit(3)
	})
	defer watchdog.Stop()
	w, err := newWorkload(o.workload, false)
	if err != nil {
		fmt.Fprintln(stderr, "carbonbench:", err)
		return 2
	}
	if record {
		d, err := w.oracle(o.seed, nil)
		if err != nil {
			fmt.Fprintln(stderr, "carbonbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s %d %s\n", w.digestTable(), o.seed, d)
		return 0
	}
	o.want, _ = recordedDigest(w.digestTable(), o.seed)
	fp := fingerprint()
	res, err := bench(w, o, fp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "carbonbench:", err)
		return 1
	}
	if o.outDir != "" {
		path, err := saveRecord(o.outDir, o, fp, res)
		if err != nil {
			fmt.Fprintln(stderr, "carbonbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "result saved to %s (compare runs with --compare)\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "carbonbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench runs reps of w until o.seconds have passed (and at least
// minMeasuredReps were measured), checks every rep's digest, and assembles
// the result.
func bench(w workload, o options, fp hostFingerprint, stdout io.Writer) (*result, error) {
	fmt.Fprintf(stdout, "workload=%s seed=%d trace=%v host=%s\n", o.workload, o.seed, o.trace, fp)

	// Rep 0 warms the heap and caches up and is only checked; a traced run
	// alternates traced and untraced reps after it.
	var untraced, traced []*repResult
	var all []*repResult
	var logs []*spanLog
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	start := now()
	for i := 0; ; i++ {
		var tr *tracer
		if o.trace && i%2 == 1 {
			tr = &tracer{spans: newSpanLog(w.spanCapacity()), rep: int32(i)}
			logs = append(logs, tr.spans)
		}
		runtime.GC()
		r, err := w.rep(o.seed, tr)
		if err != nil {
			fmt.Fprintf(stdout, "CHECK FAILED: rep %d: %v\n", i, err)
			res.Correct = false
			res.Attempted += w.edgeSlots()
			res.Failed += w.edgeSlots()
			break
		}
		res.Attempted += r.attempted
		res.Failed += r.dropped
		all = append(all, r)
		switch {
		case tr != nil:
			traced = append(traced, r)
		case i > 0:
			untraced = append(untraced, r)
		}
		// Only the last rep's and the last traced rep's artifacts are used
		// (by the oracle and the traced extras); free the rest.
		for _, old := range all[:len(all)-1] {
			if len(traced) == 0 || old != traced[len(traced)-1] {
				old.artifacts = nil
			}
		}
		fmt.Fprintf(stdout, "rep %d traced=%v setup=%.3fs rate=%.0f edge-slots/s digest=%s\n",
			i, tr != nil, float64(r.setupNS)/1e9, r.rate(), r.digest)
		elapsed := float64(now()-start) / 1e9
		if elapsed >= o.seconds && len(untraced)+len(traced) >= minMeasuredReps && len(untraced) > 0 && (!o.trace || len(traced) > 0) {
			break
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return res, nil
	}

	// Output checks: every rep must reproduce the expected digest.
	want, source := o.want, "recorded in digests.json"
	if want == "" {
		d, err := w.oracle(o.seed, all[len(all)-1])
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		want, source = d, "in-process oracle"
	}
	for i, r := range all {
		if r.digest != want {
			fmt.Fprintf(stdout, "CHECK FAILED: rep %d digest %s, want %s (%s)\n", i, r.digest, want, source)
			res.Correct = false
			res.Failed += r.attempted - r.dropped
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	status := "ok"
	if !res.Correct {
		status = "FAILED"
	}
	fmt.Fprintf(stdout, "digest %s (%s): %s\n", want, source, status)

	if !o.trace {
		// Slot-time percentiles are taken over the intervals of every
		// measured rep pooled, so the tail rests on several hundred samples
		// rather than on the eleven beyond one rep's p90.
		var rates, setups, iv []float64
		for _, r := range untraced {
			iv = append(iv, intervalsMS(r.starts)...)
			rates = append(rates, r.rate())
			setups = append(setups, float64(r.setupNS)/1e9)
		}
		put := func(name string, v float64, samples string) {
			unit := unitOf(endToEnd, name)
			res.Metrics[name] = metricValue{Value: v, Unit: unit}
			fmt.Fprintf(stdout, "  %-18s %14.4f %-13s n=%s\n", name, v, unit, samples)
		}
		reps := fmt.Sprintf("%d reps", len(untraced))
		slotSamples := fmt.Sprintf("%d slots in %s", len(iv), reps)
		put("edge_slots_per_s", median(rates), reps)
		put("slot_ms_p50", quantile(iv, 0.5), slotSamples)
		put("slot_ms_p90", quantile(iv, 0.9), slotSamples)
		put("setup_s", median(setups), reps)
		put("peak_rss_mib", rss, "1")
	} else {
		vals := map[string]float64{}
		for _, m := range perLayer {
			var xs []float64
			for _, r := range traced {
				if v, ok := r.layers[m.name]; ok {
					xs = append(xs, v)
				}
			}
			vals[m.name] = median(xs)
		}
		var ur, tr []float64
		for _, r := range untraced {
			ur = append(ur, r.rate())
		}
		for _, r := range traced {
			tr = append(tr, r.rate())
		}
		if len(ur) > 0 {
			vals["trace.overhead_pct"] = 100 * (median(ur) - median(tr)) / median(ur)
		}
		if x, ok := w.(tracedExtras); ok {
			extra, err := x.extras(o.seed, untraced, traced)
			if err != nil {
				return nil, fmt.Errorf("traced extras: %w", err)
			}
			for k, v := range extra {
				vals[k] = v
			}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
			fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", m.name, vals[m.name], m.unit)
		}
		for _, l := range logs {
			if d := l.dropped.Load(); d > 0 {
				fmt.Fprintf(stdout, "span log full: %d spans dropped\n", d)
			}
		}
		if o.outDir != "" && len(logs) > 0 {
			path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
			if err := writeSpans(path, logs); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(stdout, "  %-18s %14.4f %-13s n=%d edge-slots\n", "failed_share", share, "ratio", res.Attempted)
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// runAll runs every workload, each in its own process, and prints each
// workload's metrics followed by one combined table.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "carbonbench:", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	type row struct {
		name string
		res  result
	}
	var rows []row
	code := 0
	for _, name := range workloadNames {
		args := []string{"--workload", name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace}
		if o.outDir != "" {
			args = append(args, "--out", o.outDir)
		}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "carbonbench: workload %s: %v\n", name, err)
			code = 1
			continue
		}
		var last string
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil {
			fmt.Fprintf(stderr, "carbonbench: workload %s: bad result line: %v\n", name, err)
			code = 1
			continue
		}
		if !r.Correct {
			code = 1
		}
		rows = append(rows, row{name, r})
	}
	fmt.Fprintln(stdout, "\nsummary:")
	for _, rw := range rows {
		names := make([]string, 0, len(rw.res.Metrics))
		for k := range rw.res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "%s correct=%v failed=%d/%d\n", rw.name, rw.res.Correct, rw.res.Failed, rw.res.Attempted)
		for _, k := range names {
			m := rw.res.Metrics[k]
			fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", k, m.Value, m.Unit)
		}
	}
	return code
}
