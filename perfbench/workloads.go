package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/fleet"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// serveGens is the length of the served generation cycle, which the
// durable store's default history retains in full.
const serveGens = mapdb.DefaultHistory

func (b *bench) subdir(name string, i int) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, i))
}

func (b *bench) budget() time.Duration {
	return time.Duration(pipelineShare * float64(b.seconds))
}

// tail is the length of a traced run's serving phase: what is left
// of --seconds since start, and never less than minTailShare of it.
func (b *bench) tail(start time.Time) time.Duration {
	return max(b.seconds-time.Since(start), time.Duration(minTailShare*float64(b.seconds)))
}

// ---------------------------------------------------------------------------
// cold-map

// coldOut is one untraced from-scratch round.
type coldOut struct {
	wall    time.Duration
	allocMB float64
	packets int64
	simMax  time.Duration
	snap    *mapdb.Snapshot
	image   []byte
	fps     []uint64
	dir     string
	// events digests the program's provenance events; traced runs only.
	events string
}

// coldSetup builds the reference world with the run seed's change applied
// and derives every bdrmap input: the untraced program's eval.Build path.
func (b *bench) coldSetup() (*eval.Scenario, time.Duration, error) {
	t0 := time.Now()
	prof := b.coldProfile()
	n := topo.Generate(prof, coldWorldSeed)
	if err := coldChurn(n, b.seed); err != nil {
		return nil, 0, err
	}
	n.Build()
	s := eval.BuildFromNetwork(n, coldWorldSeed)
	s.Profile = prof
	return s, time.Since(t0), nil
}

// coldRound measures every VP from scratch, compiles the map and publishes
// it into a fresh durable store.
func (b *bench) coldRound(s *eval.Scenario, dir string) (*coldOut, error) {
	st, err := mapdb.OpenStore(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	pw, fw := b.workers()
	runtime.GC()
	mark := markAlloc()
	t0 := time.Now()
	sum, err := s.RunFleet(scamper.Config{Workers: pw}, eval.FleetOptions{Workers: fw})
	if err != nil {
		return nil, err
	}
	snap := mapdb.Compile(s.Net.HostASN, s.Results)
	st.Publish(snap)
	out := &coldOut{wall: time.Since(t0), snap: snap, dir: dir}
	out.allocMB, _ = mark.since()
	for i, sh := range sum.Shards {
		if sh.State != fleet.Done {
			return out, fmt.Errorf("VP %s ended %v: %v", s.Net.VPs[i].Name, sh.State, sh.Err)
		}
	}
	out.packets = s.Obs.Snapshot().Counter("probe.packets_sent")
	for _, ds := range s.Datasets {
		out.simMax = max(out.simMax, ds.Stats.SimDuration)
		out.fps = append(out.fps, ds.TraceFingerprint())
	}
	out.image = segmentImage(snap)
	if b.traced {
		out.events = programTraceDigest(s.Trace)
	}
	return out, nil
}

// checkCold verifies one cold round: the store reopened from disk serves
// the published bytes, every round of the run agrees, and the served
// link set, validation counts and image hash match the seed's pin.
func (b *bench) checkCold(s *eval.Scenario, out, first *coldOut) {
	st, err := mapdb.OpenStore(out.dir, 0, nil)
	if err != nil || st.Current() == nil {
		b.mismatch("reopen durable store: %v", err)
		return
	}
	served := st.Current()
	if !bytes.Equal(segmentImage(served), out.image) {
		b.mismatch("segment reopened from disk differs from the published generation")
	}
	got := coldPin{Links: served.NumLinks(), LinksSHA: linksDigest(served.Links()), SegmentSHA: sha(out.image)}
	for _, res := range s.Results {
		v := s.Validate(res)
		got.ValidCorrect += v.Correct
		got.ValidTotal += v.Total
	}
	if ratio(float64(got.ValidCorrect), float64(got.ValidTotal)) < 0.9 {
		b.mismatch("§5.6 validation accuracy %d/%d is below 90%%", got.ValidCorrect, got.ValidTotal)
	}
	if first != nil && !bytes.Equal(first.image, out.image) {
		b.mismatch("two from-scratch rounds of one world published different maps")
	}
	key := pinKey(s.Profile.Name, 0, b.seed)
	b.got.Cold[key] = got
	want, ok := b.pins.Cold[key]
	switch {
	case ok:
		for _, d := range diffCold(want, got) {
			b.mismatch("cold-map seed %d: %s", b.seed, d)
		}
	case !b.small && b.seed >= 1 && b.seed <= coldPinnedSeeds:
		b.mismatch("cold-map seed %d has no pin under %q", b.seed, key)
	}
}

func (b *bench) coldMap() error {
	runMark := markAlloc()
	start := time.Now()
	var setups, walls, allocs []float64
	var first *coldOut
	var images [][]byte
	// Traced, one untraced round is the reference; untraced, coldRounds
	// rounds run, each followed by a serving slice.
	rounds := coldRounds
	if b.traced {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		s, d, err := b.coldSetup()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		out, err := b.coldRound(s, b.subdir("cold", i))
		b.op(err)
		if err != nil {
			return err
		}
		walls = append(walls, out.wall.Seconds())
		allocs = append(allocs, out.allocMB)
		b.checkCold(s, out, first)
		// The round's map lives on in its store and image.
		out.snap = nil
		if first == nil {
			first = out
			// Every round publishes the same map (checkCold), so the
			// first round's generations are the serving cycle.
			images = progressiveImages(s.Net.HostASN, s.Results)
		}
		if i == rounds-1 {
			// The live heap with the last round's world, results and
			// store held.
			b.e2e["heap_live_mb"] = heapLiveMB()
			runtime.KeepAlive(s)
		}
		// The world is dropped here, so neither the next round nor the
		// serving slice runs beside it.
		if !b.traced {
			if err := b.slicesAfter(i, rounds, rounds, time.Duration(coldServeShare*float64(b.seconds)), images); err != nil {
				return err
			}
		}
	}
	for len(setups) < setupRepeats {
		_, d, err := b.coldSetup()
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	b.e2e["setup_s"] = median(setups)
	b.e2e["round_s"] = median(walls)
	b.layer["round_p90_s"] = quantile(walls, 0.9)
	b.e2e["alloc_mb"] = median(allocs)
	b.e2e["probe_packets"] = float64(first.packets)
	b.e2e["sim_measure_h"] = first.simMax.Hours()

	if b.traced {
		if err := b.coldTraced(first); err != nil {
			return err
		}
		if err := b.serving(images, b.tail(start)); err != nil {
			return err
		}
	}
	return b.finish(runMark)
}

// coldTraced repeats the cold round composed from public calls, with
// spans around every layer, and checks it publishes the same bytes.
func (b *bench) coldTraced(ref *coldOut) error {
	ps := newPipeStats()
	prof := b.coldProfile()
	ssp := b.spans.begin(0, "setup", "cold")
	var n *topo.Network
	var err error
	ps.lt.generate = append(ps.lt.generate, b.timed(ssp.id(), "topo", "generate", func() { n = topo.Generate(prof, coldWorldSeed) }))
	ps.lt.mutate = append(ps.lt.mutate, b.timed(ssp.id(), "topo", "mutate", func() {
		if err = coldChurn(n, b.seed); err == nil {
			n.Build()
		}
	}))
	if err != nil {
		return err
	}
	w := b.buildWorld(n, coldWorldSeed, ssp.id(), &ps.lt)
	ssp.end()

	st, err := mapdb.OpenStore(b.subdir("cold-traced", 0), 0, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	c0 := cpuTime()
	t0 := time.Now()
	rsp := b.spans.begin(0, "round", "cold")
	pw, _ := b.workers()
	datasets, results, trace, err := b.tracedFleet(w, ps, scamper.Config{Workers: pw}, nil, nil, rsp.id())
	b.op(err)
	if err != nil {
		return err
	}
	snap := b.compilePublish(ps, n.HostASN, results, st, rsp.id())
	wall := time.Since(t0)
	rsp.end()
	ps.cpu = cpuTime() - c0
	ps.rounds = 1
	ps.roundWalls = []float64{wall.Seconds()}
	afterRound(ps, results, snap)

	if !bytes.Equal(segmentImage(snap), ref.image) {
		b.mismatch("traced cold round published different segment bytes than the untraced round")
	}
	for i, ds := range datasets {
		if ds.TraceFingerprint() != ref.fps[i] {
			b.mismatch("traced cold round: VP %d trace fingerprint differs from the untraced round", i)
		}
	}
	if programTraceDigest(trace) != ref.events {
		b.mismatch("traced cold round: provenance events differ from the untraced round's")
	}
	ps.report(b.layer)
	b.layer["trace.overhead_s"] = wall.Seconds() - ref.wall.Seconds()
	return nil
}

// ---------------------------------------------------------------------------
// rounds

// passOut is one untraced mapdb.RunRounds pass.
type passOut struct {
	total      time.Duration
	setup      time.Duration // until the first generation is published
	roundWalls []float64     // s, rounds after the first
	allocMB    float64
	packets    int64
	simH       float64
	fps        []string
	image      []byte
	dir        string
	heapMB     float64
	// events digests the last round's provenance events; traced runs only.
	events string
}

// roundsPass runs mapdb.RunRounds incrementally into a durable store and
// times each round from the store's own publish notifications.
func (b *bench) roundsPass(ws int64, rounds int, dir string) (*passOut, error) {
	st, err := mapdb.OpenStore(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	ch, cancel, _ := st.Watch(rounds + 1)
	defer cancel()
	stamps := make([]time.Time, 0, rounds)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(stamps) < rounds {
			select {
			case <-ch:
				stamps = append(stamps, time.Now())
			case <-stop:
				return
			}
		}
	}()
	reg := obs.New()
	pw, fw := b.workers()
	runtime.GC()
	mark := markAlloc()
	t0 := time.Now()
	events, final, err := mapdb.RunRoundsFull(mapdb.RoundsConfig{
		Profile: b.roundsProfile(), Seed: ws, Rounds: rounds,
		Workers: pw, FleetWorkers: fw, Incremental: true, Obs: reg,
	}, st)
	total := time.Since(t0)
	if err != nil {
		close(stop)
		<-done
		return nil, err
	}
	<-done
	out := &passOut{total: total, setup: stamps[0].Sub(t0), dir: dir}
	// The live heap with the pass's final scenario and store held.
	out.heapMB = heapLiveMB()
	runtime.KeepAlive(st)
	runtime.KeepAlive(final)
	for i := 1; i < len(stamps); i++ {
		out.roundWalls = append(out.roundWalls, stamps[i].Sub(stamps[i-1]).Seconds())
	}
	out.allocMB, _ = mark.since()
	out.allocMB /= float64(rounds)
	snap := reg.Snapshot()
	out.packets = snap.Counter("probe.packets_sent")
	out.simH = time.Duration(snap.Stage("driver.probe").SimNS + snap.Stage("driver.alias").SimNS).Hours()
	for _, ev := range events {
		out.fps = append(out.fps, strconv.FormatUint(ev.TraceFP, 16))
	}
	out.image = segmentImage(st.Current())
	if b.traced {
		out.events = programTraceDigest(final.Trace)
	}
	return out, nil
}

// checkPass verifies a pass: the store reopened from disk serves the last
// published bytes, and the trace fingerprints and final map match the
// world seed's pin.
func (b *bench) checkPass(ws int64, out *passOut) {
	st, err := mapdb.OpenStore(out.dir, 0, nil)
	if err != nil || st.Current() == nil {
		b.mismatch("reopen durable store: %v", err)
		return
	}
	served := st.Current()
	if !bytes.Equal(segmentImage(served), out.image) {
		b.mismatch("segment reopened from disk differs from the last published generation")
	}
	got := roundsPin{TraceFPs: out.fps, LinksSHA: linksDigest(served.Links()), SegmentSHA: sha(out.image)}
	key := pinKey(b.roundsProfile().Name, len(out.fps), ws)
	b.got.Rounds[key] = got
	want, ok := b.pins.Rounds[key]
	switch {
	case ok:
		for _, d := range diffRounds(want, got) {
			b.mismatch("rounds world seed %d: %s", ws, d)
		}
	case !b.small:
		// Every world of the pool is pinned for the pass lengths the
		// workloads run, so a missing pin is a drifted key, not a new seed.
		b.mismatch("rounds world seed %d has no pin under %q", ws, key)
	}
}

func (b *bench) rounds() error {
	runMark := markAlloc()
	passes := max(setupRepeats, int(b.budget()/passEstimate))
	var setups, walls, allocs, heaps []float64
	var packets int64
	var simH float64
	images, err := b.servingCycle()
	if err != nil {
		return err
	}
	for p := 0; p < passes; p++ {
		ws := passSeed(b.seed, p)
		out, err := b.roundsPass(ws, roundsPerPass, b.subdir("pass", p))
		b.attempted += roundsPerPass
		if err != nil {
			b.failOp(err)
			return err
		}
		b.checkPass(ws, out)
		setups = append(setups, out.setup.Seconds())
		walls = append(walls, out.roundWalls...)
		allocs = append(allocs, out.allocMB)
		heaps = append(heaps, out.heapMB)
		packets += out.packets
		simH += out.simH
		if b.traced {
			if err := b.roundsTraced(ws, out); err != nil {
				return err
			}
			if err := b.serving(images, b.seconds-b.budget()); err != nil {
				return err
			}
			break
		}
		if err := b.slicesAfter(p, passes, roundsSlices, b.seconds-b.budget(), images); err != nil {
			return err
		}
	}
	b.e2e["setup_s"] = median(setups)
	b.e2e["round_s"] = median(walls)
	b.layer["round_p90_s"] = quantile(walls, 0.9)
	b.e2e["alloc_mb"] = median(allocs)
	b.e2e["probe_packets"] = float64(packets)
	b.e2e["sim_measure_h"] = simH
	b.e2e["heap_live_mb"] = median(heaps)
	return b.finish(runMark)
}

// replayOut is one traced replay of a rounds pass.
type replayOut struct {
	fps    []string
	image  []byte
	dir    string
	events string // the last round's provenance events, digested
}

// replayRounds re-runs mapdb.RunRounds' schedule composed from public
// calls: the churn through topo.AttachCustomer and topo.Depeer, the world
// rebuilt layer by layer, every VP driven through the fleet coordinator
// behind a timedProber, and each round compiled and published durably.
func (b *bench) replayRounds(ws int64, rounds int, dir string, ps *pipeStats) (*replayOut, error) {
	st, err := mapdb.OpenStore(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	prof := b.roundsProfile()
	ssp := b.spans.begin(0, "setup", "rounds")
	var n *topo.Network
	ps.lt.generate = append(ps.lt.generate, b.timed(ssp.id(), "topo", "generate", func() { n = topo.Generate(prof, ws) }))
	ssp.end()
	// The same stream mapdb.RunRounds draws its de-peering victims from.
	rng := rand.New(rand.NewSource(ws ^ 0x6d617064))
	states := make([]*scamper.RoundState, len(n.VPs))
	for i := range states {
		states[i] = scamper.NewRoundState()
	}
	var prevs []*core.Result
	pw, _ := b.workers()
	out := &replayOut{dir: dir}
	runtime.GC()
	for r := 0; r < rounds; r++ {
		c0 := cpuTime()
		t0 := time.Now()
		rsp := b.spans.begin(0, "round", strconv.Itoa(r))
		if r > 0 {
			var err error
			ps.lt.mutate = append(ps.lt.mutate, b.timed(rsp.id(), "topo", "mutate", func() {
				if err = roundsChurn(n, rng, r); err == nil {
					n.Build()
				}
			}))
			if err != nil {
				rsp.end()
				return nil, err
			}
		}
		w := b.buildWorld(n, ws, rsp.id(), &ps.lt)
		datasets, results, trace, err := b.tracedFleet(w, ps, scamper.Config{Workers: pw}, states, prevs, rsp.id())
		b.op(err)
		if err != nil {
			rsp.end()
			return nil, err
		}
		prevs = results
		snap := b.compilePublish(ps, n.HostASN, results, st, rsp.id())
		wall := time.Since(t0)
		rsp.end()
		ps.cpu += cpuTime() - c0
		if r > 0 {
			ps.roundWalls = append(ps.roundWalls, wall.Seconds())
		}
		out.fps = append(out.fps, strconv.FormatUint(roundFP(datasets), 16))
		if r == rounds-1 {
			out.events = programTraceDigest(trace)
		}
		afterRound(ps, results, snap)
	}
	ps.rounds = rounds
	out.image = segmentImage(st.Current())
	return out, nil
}

// roundsTraced replays the untraced pass and checks it reproduces the
// same trace fingerprints and final segment bytes.
func (b *bench) roundsTraced(ws int64, ref *passOut) error {
	ps := newPipeStats()
	rep, err := b.replayRounds(ws, roundsPerPass, b.subdir("replay", 0), ps)
	if err != nil {
		return err
	}
	b.compareReplay(rep, ref)
	ps.report(b.layer)
	b.layer["trace.overhead_s"] = median(ps.roundWalls) - median(ref.roundWalls)
	return nil
}

func (b *bench) compareReplay(rep *replayOut, ref *passOut) {
	if fmt.Sprint(rep.fps) != fmt.Sprint(ref.fps) {
		b.mismatch("traced replay trace fingerprints %v differ from mapdb.RunRounds' %v", rep.fps, ref.fps)
	}
	if !bytes.Equal(rep.image, ref.image) {
		b.mismatch("traced replay published different final segment bytes than mapdb.RunRounds")
	}
	if rep.events != ref.events {
		b.mismatch("traced replay's last round emitted different provenance events than mapdb.RunRounds'")
	}
}

// slicesAfter runs the serving slices due after unit i of n pipeline units
// (cold rounds or r&e passes): count slices of total/count each, spread
// evenly over the units. Interleaved, the pipeline's timings and the
// serving phase's segments both sample the whole run, so a slow stretch
// of the shared host weighs on every metric of the run alike instead of
// on one phase. A slice lasts at least minSlice: the follower's /v1/gen
// lists the generations it has retained since it synced, which match the
// leader's only once a full history has been published after the sync.
func (b *bench) slicesAfter(i, n, count int, total time.Duration, images [][]byte) error {
	for k := i * count / n; k < (i+1)*count/n; k++ {
		if err := b.serving(images, max(total/time.Duration(count), minSlice)); err != nil {
			return err
		}
	}
	return nil
}

// servingCycle builds the generation cycle the rounds workload serves:
// serveGens rounds of the servingWorldSeed r&e world, untimed and
// checked against its pin.
func (b *bench) servingCycle() ([][]byte, error) {
	out, err := b.roundsPass(servingWorldSeed, serveGens, b.subdir("serving", 0))
	b.attempted += serveGens
	if err != nil {
		b.failOp(err)
		return nil, err
	}
	b.checkPass(servingWorldSeed, out)
	return storeImages(out.dir)
}

// finish records what every workload reports at the end of its run.
func (b *bench) finish(runMark allocMark) error {
	if !b.traced {
		// The queries a second one closed-loop sender gets from the
		// tier's handler while generations are published, applied and
		// streamed beside it on the other CPU: a slower handler or a
		// publish that holds readers longer lowers it.
		b.e2e["query_max_rps"] = median(b.loopRates)
		// The CPU time per query of the handler and lookups alone, not
		// diluted by publishing or by the HTTP transport.
		b.e2e["query_cpu_us"] = median(b.loopCPU)
	}
	if b.traced {
		_, pause := runMark.since()
		b.layer["runtime.gc_pause_ms"] = pause
		b.largeChurnDefect()
	}
	return nil
}

// largeChurnDefect attempts one churn round of mapdb.RunRounds on the
// tier1 profile. It fails today: the round attaches AS65001, which the
// generator has already allocated on profiles of more than about 500
// ASes. The metric counts the failed round, so a fix shows as 0.
func (b *bench) largeChurnDefect() {
	prof := topo.Tier1Profile()
	if b.small {
		prof = topo.TinyProfile()
	}
	_, err := mapdb.RunRounds(mapdb.RoundsConfig{
		Profile: prof, Seed: 1, Rounds: 2, Workers: roundsProbeWorkers, FleetWorkers: roundsFleetWorkers, Incremental: true,
	}, mapdb.NewStore(0, nil))
	b.layer["defect.large_churn_failed"] = 0
	switch {
	case err == nil:
	case strings.Contains(err.Error(), "already exists"):
		fmt.Fprintf(os.Stderr, "perfbench: known defect reproduced: %v\n", err)
		b.layer["defect.large_churn_failed"] = 1
	default:
		b.mismatch("tier1 churn round failed other than by the known ASN collision: %v", err)
	}
}
