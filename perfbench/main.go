// Command perfbench is the repository's benchmark: one seeded command that
// runs one workload of the border-mapping pipeline and its serving tier,
// checks the outputs, and prints every metric by name with its unit.
//
//	perfbench --workload cold-map|rounds --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced run. With
// --trace 1 it runs the same workload again with spans recorded around
// every call into a layer, checks that the traced run reproduces the
// untraced run's outputs byte for byte, writes the spans as JSONL under
// .bench_build/spans, and prints the per-layer metrics instead.
//
// Every layer is timed from outside, at the public entry points of topo,
// bgp, asrel, scamper (through a wrapping Prober), core, fleet and mapdb,
// plus the program's own driver.probe, driver.alias and core.infer stage
// timers and counters. Nothing inside the program is instrumented here.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is non-zero when any correctness check fails. README.md
// beside this file lists the workloads and which per-layer metric should
// move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Load sizing for a 2-vCPU runner: probing workers × fleet workers, query
// connections and watch subscribers each stay within the CPU count.
const (
	// cold-map's 19 VPs run two shards at a time, each probing with one
	// worker; r&e has one VP, whose shard probes with two.
	coldProbeWorkers   = 1
	coldFleetWorkers   = 2
	roundsProbeWorkers = 2
	roundsFleetWorkers = 1
	// queryConns is the traced open-loop ladder's connection count.
	queryConns = 2
	// loopSenders is the closed loop's sender count: one, so the second
	// CPU is left to the publisher, the replicas and the collector, and
	// the rate measures the serving path rather than the scheduler.
	loopSenders = 1
	watchSubs   = 2
	// publishEvery is an assumption: the paper's rounds publish hours
	// apart, so the serving phase compresses the cadence until a run sees
	// hundreds of publishes (README.md, "Serving assumptions").
	publishEvery = 50 * time.Millisecond
	setupRepeats = 3
	// coldRounds is how many from-scratch rounds an untraced cold-map run
	// times: round_s is their median, so one slow stretch of a shared host
	// moves one round, not the figure.
	coldRounds = 4
	// servingWorldSeed fixes the r&e world whose generation cycle the
	// rounds workload serves, as coldWorldSeed fixes cold-map's:
	// query cost depends on the map served, and the figures must compare
	// from seed to seed. The seed still draws the query stream.
	servingWorldSeed = 1
	// roundsPerPass covers one forced cache refresh (every 8 rounds).
	roundsPerPass = 12
	// passEstimate sizes the rounds workload: it runs one pass of
	// roundsPerPass rounds per passEstimate of its pipeline budget, a
	// count fixed by --seconds alone so its counts repeat for a seed.
	// Each pass measures its own world, and summing many worlds keeps the
	// seed-to-seed spread of the counts small.
	passEstimate = time.Second
	// pipelineShare is the part of --seconds the rounds workload spends on
	// its passes; the rest goes to serving. A traced run serves once, after
	// its reference pipeline, for the rest of --seconds and never less than
	// minTailShare of it.
	pipelineShare = 0.5
	minTailShare  = 0.25
	// Untraced, serving runs in slices between the pipeline units:
	// cold-map serves coldServeShare of --seconds, one slice after each of
	// its rounds; rounds serves the other half in roundsSlices slices
	// between its passes. At 45 s each slice is 2.25 s or more.
	coldServeShare = 0.3
	roundsSlices   = 10
	minSlice       = time.Second
)

// ladder is the traced run's open-loop query rate ladder, in requests per
// second: 10 to 40 times below one sender's loopback closed-loop rate on
// the 2-vCPU runner, so both rungs measure latency below saturation.
var ladder = []int{250, 1000}

// Tail percentiles are reported as the median of per-window percentiles:
// queryWindow requests or lagWindow publishes per window, so every
// window's p99 still has ten or more samples beyond it for queries.
const (
	queryWindow = 1000
	lagWindow   = 100
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload, its seed and its measurement window.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// dir holds the run's stores and segment files; it is removed at exit.
	dir string
	// spansPath is where the traced run writes its spans.
	spansPath string
	// small shrinks the pipeline profiles for the benchmark's own tests.
	small bool

	spans *spanLog
	// pins are the outputs pinned for chosen seeds; got collects this
	// run's outputs in the same form.
	pins, got pinFile

	e2e   map[string]float64
	layer map[string]float64
	// loopRates and loopCPU are the untraced closed loop's segment rates
	// (beside the publisher) and CPU µs per query (publisher paused), over
	// every serving slice of the run.
	loopRates, loopCPU []float64
	attempted          int
	failed             int
	errs               []string
}

// workers returns the probing and fleet worker counts of the workload's
// pipeline.
func (b *bench) workers() (probe, fleet int) {
	if b.workload == "cold-map" {
		return coldProbeWorkers, coldFleetWorkers
	}
	return roundsProbeWorkers, roundsFleetWorkers
}

func newBench(workload string, seed int64, seconds time.Duration, traced bool, root string) *bench {
	return &bench{
		workload:  workload,
		seed:      seed,
		seconds:   seconds,
		traced:    traced,
		dir:       filepath.Join(root, "data", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())),
		spansPath: filepath.Join(root, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed)),
		e2e:       make(map[string]float64),
		layer:     make(map[string]float64),
	}
}

// mismatch records a failed correctness check.
func (b *bench) mismatch(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// failOp marks an operation already counted as attempted as failed.
func (b *bench) failOp(err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
}

func (b *bench) run() error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)
	pins, err := loadPins()
	if err != nil {
		return err
	}
	b.pins = pins
	b.got = pinFile{Cold: map[string]coldPin{}, Rounds: map[string]roundsPin{}}
	if b.traced {
		b.spans = newSpanLog()
	}
	switch b.workload {
	case "cold-map":
		err = b.coldMap()
	case "rounds":
		err = b.rounds()
	default:
		return fmt.Errorf("unknown workload %q (want cold-map or rounds)", b.workload)
	}
	if err != nil {
		return err
	}
	if b.traced {
		b.spans.selfTimes(b.layer)
		if err := b.spans.writeJSONL(b.spansPath); err != nil {
			return err
		}
	}
	return nil
}

// result assembles the output object for the run's mode and fails if a
// metric the benchmark defines was not measured.
func (b *bench) result() (result, error) {
	defs, vals := e2eMetrics, b.e2e
	if b.traced {
		defs, vals = layerMetrics, b.layer
	}
	out := result{
		Correct:   len(b.errs) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if out.Attempted < 1 {
		return out, errors.New("no operation attempted")
	}
	return out, nil
}

func main() {
	workload := flag.String("workload", "", "cold-map or rounds")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	root := flag.String("out", ".bench_build", "directory for stores, segments and spans")
	showPins := flag.Bool("print-pins", false, "print this run's outputs in pins.json form on stderr")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}

	b := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *root)
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(os.Stderr, res)
	if *showPins {
		printPins(b.got)
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printTable(w *os.File, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}
