package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bdrmap/internal/mapdb"
	"bdrmap/internal/topo"
)

// runSmall runs one workload on the small test profiles for a
// minimum-length window and returns its result.
func runSmall(t *testing.T, workload string, seed int64, traced bool) (*bench, result) {
	t.Helper()
	b := newBench(workload, seed, 2*time.Second, traced, t.TempDir())
	b.small = true
	if err := b.run(); err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", workload, seed, traced, err)
	}
	res, err := b.result()
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", workload, seed, traced, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d traced=%v: correct=%v failed=%d checks=%v", workload, seed, traced, res.Correct, res.Failed, b.errs)
	}
	return b, res
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile checks the metric lists the program emits
// against BENCHMARK.json, name for name and unit for unit.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchFile(t)
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	render := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit)
		}
		return out
	}
	if got := render(e2eMetrics); strings.Join(got, ",") != strings.Join(e2e, ",") {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, e2e)
	}
	if got := render(layerMetrics); strings.Join(got, ",") != strings.Join(layer, ",") {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, layer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "cold-map,rounds" {
		t.Errorf("workloads %v", names)
	}
}

// TestMinimumRunEmitsEveryMetric runs every workload for the shortest
// window, untraced and traced, and checks each metric is reported with
// its unit; the traced run must also reproduce the untraced outputs.
func TestMinimumRunEmitsEveryMetric(t *testing.T) {
	for _, w := range []string{"cold-map", "rounds"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				b, res := runSmall(t, w, 3, traced)
				defs := e2eMetrics
				if traced {
					defs = layerMetrics
					if _, err := os.Stat(b.spansPath); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !traced {
					for _, d := range defs {
						if res.Metrics[d.name].Value == 0 {
							t.Errorf("end-to-end metric %s is 0", d.name)
						}
					}
				}
			})
		}
	}
}

// TestSameSeedSameCounts checks that the counts a run reports repeat
// exactly for a seed.
func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range []string{"cold-map", "rounds"} {
		_, a := runSmall(t, w, 5, false)
		_, b := runSmall(t, w, 5, false)
		for _, name := range []string{"probe_packets", "sim_measure_h"} {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s %s: %v then %v", w, name, a.Metrics[name], b.Metrics[name])
			}
		}
		_, at := runSmall(t, w, 5, true)
		_, bt := runSmall(t, w, 5, true)
		for _, name := range []string{"scamper.stopset_ratio", "scamper.cache_hit_ratio", "probe.trace_calls", "scamper.alias_pairs"} {
			if at.Metrics[name] != bt.Metrics[name] {
				t.Errorf("%s %s: %v then %v", w, name, at.Metrics[name], bt.Metrics[name])
			}
		}
	}
}

// TestCorruptedOutputFailsCheck flips one link in a real output and
// expects each check to notice.
func TestCorruptedOutputFailsCheck(t *testing.T) {
	b := newBench("cold-map", 2, time.Second, false, t.TempDir())
	b.small = true
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s, _, err := b.coldSetup()
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.coldRound(s, b.subdir("cold", 0))
	if err != nil {
		t.Fatal(err)
	}
	links := append([]mapdb.Link(nil), out.snap.Links()...)
	pin := coldPin{Links: len(links), LinksSHA: linksDigest(links), SegmentSHA: sha(out.image)}
	if d := diffCold(pin, pin); len(d) != 0 {
		t.Fatalf("pin differs from itself: %v", d)
	}
	flipped := append([]mapdb.Link(nil), links...)
	flipped[0].FarAS++
	bad := pin
	bad.LinksSHA = linksDigest(flipped)
	if d := diffCold(pin, bad); len(d) == 0 {
		t.Error("cold-map check accepted a flipped link")
	}
	rp := roundsPin{TraceFPs: []string{"1", "2"}, LinksSHA: pin.LinksSHA}
	badRP := rp
	badRP.LinksSHA = bad.LinksSHA
	if d := diffRounds(rp, badRP); len(d) == 0 {
		t.Error("rounds check accepted a flipped link")
	}

	// The run's own check, against a pin under the run's own key: its own
	// outputs pass, the same outputs with one link flipped in the pin fail.
	b.got = pinFile{Cold: map[string]coldPin{}, Rounds: map[string]roundsPin{}}
	b.checkCold(s, out, nil)
	key := pinKey(s.Profile.Name, 0, b.seed)
	own, ok := b.got.Cold[key]
	if !ok || len(b.errs) != 0 {
		t.Fatalf("cold check recorded no outputs under %q or failed: %v", key, b.errs)
	}
	b.pins = pinFile{Cold: map[string]coldPin{key: own}}
	b.checkCold(s, out, nil)
	if len(b.errs) != 0 {
		t.Fatalf("cold check rejected the run's own pin: %v", b.errs)
	}
	corrupt := own
	corrupt.LinksSHA = linksDigest(flipped)
	b.pins.Cold[key] = corrupt
	b.checkCold(s, out, nil)
	if res, _ := b.result(); res.Correct {
		t.Error("cold check accepted a pin with a flipped link")
	}

	// A served answer naming the wrong far AS must fail the serve check.
	h := &harness{b: b, refs: []*mapdb.Snapshot{out.snap}}
	l := links[0]
	body := func(l mapdb.Link) []byte {
		data, _ := json.Marshal(struct {
			Gen  int      `json:"gen"`
			Link linkJSON `json:"link"`
		}{1, toLinkJSON(l)})
		return data
	}
	r := &reqRec{q: query{kind: "link", near: l.Near, far: l.Far}, status: http.StatusOK, g0: 1, g1: 1, body: body(l)}
	if err := h.verify(r); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	r.body = body(flipped[0])
	if err := h.verify(r); err == nil {
		t.Error("serve check accepted a flipped link")
	}
}

// TestIncrementalVerifyPass runs one mapdb.RunRounds pass with Verify on,
// which checks every incremental round against a from-scratch run, and
// checks the benchmark's untimed pass records the same fingerprints.
func TestIncrementalVerifyPass(t *testing.T) {
	const rounds = 4
	events, err := mapdb.RunRounds(mapdb.RoundsConfig{
		Profile: topo.REProfile(), Seed: 7, Rounds: rounds,
		Workers: roundsProbeWorkers, FleetWorkers: roundsFleetWorkers, Incremental: true, Verify: true,
	}, mapdb.NewStore(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	b := newBench("rounds", 7, time.Second, false, t.TempDir())
	out, err := b.roundsPass(7, rounds, b.subdir("pass", 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if got := fmt.Sprintf("%x", ev.TraceFP); got != out.fps[i] {
			t.Errorf("round %d: verified fingerprint %s, benchmark pass %s", i, got, out.fps[i])
		}
	}
}

// TestRoundsPinFailsClosed runs one small rounds pass and checks it
// against a pin under its own key, then against the same pin with one
// round's fingerprint changed, then against a pin table missing its key
// while the pool's worlds are required to be pinned.
func TestRoundsPinFailsClosed(t *testing.T) {
	const ws, rounds = 4, 3
	b := newBench("rounds", ws, time.Second, false, t.TempDir())
	b.small = true
	b.got = pinFile{Cold: map[string]coldPin{}, Rounds: map[string]roundsPin{}}
	out, err := b.roundsPass(ws, rounds, b.subdir("pass", 0))
	if err != nil {
		t.Fatal(err)
	}
	b.checkPass(ws, out)
	key := pinKey(b.roundsProfile().Name, rounds, ws)
	own, ok := b.got.Rounds[key]
	if !ok || len(b.errs) != 0 {
		t.Fatalf("rounds check recorded no outputs under %q or failed: %v", key, b.errs)
	}
	b.pins = pinFile{Rounds: map[string]roundsPin{key: own}}
	b.checkPass(ws, out)
	if len(b.errs) != 0 {
		t.Fatalf("rounds check rejected the run's own pin: %v", b.errs)
	}
	corrupt := own
	corrupt.TraceFPs = append([]string(nil), own.TraceFPs...)
	corrupt.TraceFPs[rounds-1] += "0"
	b.pins.Rounds[key] = corrupt
	b.checkPass(ws, out)
	if res, _ := b.result(); res.Correct {
		t.Error("rounds check accepted a pin with a changed trace fingerprint")
	}

	pool := newBench("rounds", ws, time.Second, false, t.TempDir())
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	pool.pins = pins
	pool.got = pinFile{Cold: map[string]coldPin{}, Rounds: map[string]roundsPin{}}
	pool.checkPass(ws, out)
	if len(pool.errs) == 0 {
		t.Errorf("a pool world with no pin under %q passed", pinKey(pool.roundsProfile().Name, rounds, ws))
	}
}
