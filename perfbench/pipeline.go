package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/core"
	"bdrmap/internal/fleet"
	"bdrmap/internal/ixp"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/rir"
	"bdrmap/internal/scamper"
	"bdrmap/internal/sibling"
	"bdrmap/internal/topo"
)

// coldWorldSeed fixes the cold-map reference world: the large-access
// profile's worlds differ so much from seed to seed (a cold round takes
// 12 s on one and 24 s on another) that a per-seed world would measure
// the generator, not the program. The run seed instead picks the one
// interconnect change applied to that world before the rebuild.
const coldWorldSeed = 1

func (b *bench) coldProfile() topo.Profile {
	if b.small {
		return topo.TinyProfile()
	}
	return topo.LargeAccessProfile()
}

func (b *bench) roundsProfile() topo.Profile {
	if b.small {
		return topo.TinyProfile()
	}
	return topo.REProfile()
}

// worldPool is the number of r&e worlds the rounds workload draws
// from. One world's simulated measurement time differs from
// another's by about 38%, so a run sums over most of a fixed pool: the
// run seed picks where in the pool its passes start.
const worldPool = 20

// passSeed is the world seed of pass p of a run with the given seed.
func passSeed(seed int64, p int) int64 {
	return 1 + ((seed+int64(p))%worldPool+worldPool)%worldPool
}

// layerTimes collects per-round timings of the world-building layers.
type layerTimes struct {
	generate, mutate, table, routes, collect, asrel, inputs []float64
}

// world is every input bdrmap consumes, built call by call so each layer
// can be timed; it mirrors eval.BuildFromNetwork.
type world struct {
	n     *topo.Network
	tab   *bgp.Table
	view  *bgp.View
	rel   *asrel.Inference
	rdb   *rir.DB
	pl    *ixp.PrefixList
	sibs  *sibling.Set
	hosts map[topo.ASN]bool
}

// timed runs f inside a span and returns its wall time in seconds.
func (b *bench) timed(parent int64, name, key string, f func()) float64 {
	sp := b.spans.begin(parent, name, key)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.end()
	return d.Seconds()
}

// buildWorld derives the inputs for n. When traced it also computes every
// prefix's BGP routes eagerly, which the untraced program does lazily
// inside forwarding, so that cost shows as its own layer.
func (b *bench) buildWorld(n *topo.Network, seed int64, parent int64, lt *layerTimes) *world {
	w := &world{n: n}
	lt.table = append(lt.table, b.timed(parent, "bgp", "table", func() { w.tab = bgp.NewTable(n) }))
	lt.routes = append(lt.routes, b.timed(parent, "bgp", "routes", func() {
		for _, p := range w.tab.Prefixes() {
			w.tab.Routes(p)
		}
	}))
	lt.collect = append(lt.collect, b.timed(parent, "bgp", "collect", func() { w.view = bgp.Collect(w.tab, bgp.DefaultVantages(n)) }))
	lt.asrel = append(lt.asrel, b.timed(parent, "asrel", "infer", func() { w.rel = asrel.Infer(w.view) }))
	lt.inputs = append(lt.inputs, b.timed(parent, "inputs", "rir+ixp+sibling", func() {
		w.rdb = rir.FromNetwork(n)
		w.pl = ixp.Merge(ixp.FromNetwork(n, seed))
		w.sibs = sibling.FromNetwork(n, seed)
		w.sibs.CurateHost(n)
		w.hosts = map[topo.ASN]bool{n.HostASN: true}
		for _, s := range w.sibs.SiblingsOf(n.HostASN) {
			w.hosts[s] = true
		}
	}))
	return w
}

// pipeStats is what the traced pipeline measured, summed over its rounds
// unless a field says otherwise.
type pipeStats struct {
	mu           sync.Mutex // guards the slices shards append to
	lt           layerTimes
	sim          simCounters
	reg          *obs.Registry
	rounds       int
	roundWalls   []float64 // traced round wall times
	cpu          time.Duration
	inferS       []float64 // per VP and round
	shardS       []float64
	queueS       []float64
	compileS     []float64
	publishMS    []float64
	mergeS       []float64
	encodeS      []float64
	segmentBytes []float64
}

func newPipeStats() *pipeStats { return &pipeStats{reg: obs.New()} }

func (ps *pipeStats) add(xs *[]float64, v float64) {
	ps.mu.Lock()
	*xs = append(*xs, v)
	ps.mu.Unlock()
}

// tracedFleet runs one round of every VP through the fleet coordinator,
// with each shard composed from public calls exactly as eval.RunFleet
// composes it, but with the simulator behind a timedProber. It returns the
// round's provenance events merged as eval.RunFleet merges them.
func (b *bench) tracedFleet(w *world, ps *pipeStats, cfg scamper.Config, states []*scamper.RoundState, prevs []*core.Result, parent int64) ([]*scamper.Dataset, []*core.Result, *obs.Tracer, error) {
	n := w.n
	datasets := make([]*scamper.Dataset, len(n.VPs))
	fsp := b.spans.begin(parent, "fleet", "run")
	start := time.Now()
	shards := make([]fleet.Shard, len(n.VPs))
	for i := range n.VPs {
		i := i
		shards[i] = fleet.Shard{
			Name: n.VPs[i].Name,
			Run: func(ctx fleet.RunCtx) (*fleet.Output, error) {
				ssp := b.spans.begin(fsp.id(), "shard", n.VPs[i].Name)
				t0 := time.Now()
				ps.add(&ps.queueS, t0.Sub(start).Seconds())
				frag := obs.NewTracer(0)
				sfrag := obs.NewSpanLog(0)
				eng := probe.New(n, w.tab)
				eng.SetObs(ps.reg)
				vsp := sfrag.Begin(0, "vp", n.VPs[i].Name)
				vsp.SetAttr("mode", "fleet")
				c := cfg
				if states != nil {
					c.State = states[i]
				}
				d := &scamper.Driver{
					View:       w.view,
					Prober:     timedProber{p: scamper.LocalProber{E: eng, VP: n.VPs[i]}, c: &ps.sim},
					HostASNs:   w.hosts,
					Cfg:        c,
					Obs:        ps.reg,
					Trace:      frag,
					Spans:      sfrag,
					SpanParent: vsp.ID(),
				}
				var ds *scamper.Dataset
				b.timed(ssp.id(), "scamper", n.VPs[i].Name, func() { ds = d.Run() })
				var prev *core.Result
				if prevs != nil {
					prev = prevs[i]
				}
				var res *core.Result
				ps.add(&ps.inferS, b.timed(ssp.id(), "core", n.VPs[i].Name, func() {
					res = core.Infer(core.Input{
						Data: ds, View: w.view, Rel: w.rel, RIR: w.rdb, IXP: w.pl,
						HostASN: n.HostASN, Siblings: w.sibs,
						Obs: ps.reg, Trace: frag, Spans: sfrag, SpanParent: vsp.ID(),
						Prev: prev, Arena: ctx.Arena,
					})
				}))
				vsp.End()
				ps.reg.Inc("eval.vp_runs")
				datasets[i] = ds
				ps.add(&ps.shardS, time.Since(t0).Seconds())
				ssp.end()
				return &fleet.Output{Result: res, Trace: frag, Spans: sfrag, Aux: ds}, nil
			},
		}
	}
	trace := obs.NewTracer(0)
	_, fw := b.workers()
	sum, err := fleet.Run(fleet.Config{
		Workers: fw,
		Obs:     ps.reg,
		Trace:   trace,
		Spans:   obs.NewSpanLog(0),
	}, shards)
	fsp.end()
	if err != nil {
		return nil, nil, nil, err
	}
	for i, st := range sum.Shards {
		if st.State != fleet.Done {
			return nil, nil, nil, fmt.Errorf("shard %s ended %v: %v", n.VPs[i].Name, st.State, st.Err)
		}
	}
	return datasets, sum.Results, trace, nil
}

// compilePublish compiles results and publishes them durably, timing both.
func (b *bench) compilePublish(ps *pipeStats, host topo.ASN, results []*core.Result, st *mapdb.Store, parent int64) *mapdb.Snapshot {
	var snap *mapdb.Snapshot
	ps.compileS = append(ps.compileS, b.timed(parent, "mapdb.compile", "", func() { snap = mapdb.Compile(host, results) }))
	ps.publishMS = append(ps.publishMS, 1000*b.timed(parent, "mapdb.publish", "", func() { st.Publish(snap) }))
	return snap
}

// afterRound times the steps the traced round does not include: a
// standalone core.Merge and segment encode of the published snapshot.
func afterRound(ps *pipeStats, results []*core.Result, snap *mapdb.Snapshot) {
	t0 := time.Now()
	core.Merge(results)
	ps.mergeS = append(ps.mergeS, time.Since(t0).Seconds())
	t0 = time.Now()
	n, _ := snap.WriteTo(io.Discard)
	ps.encodeS = append(ps.encodeS, time.Since(t0).Seconds())
	ps.segmentBytes = append(ps.segmentBytes, float64(n))
}

// report fills the per-layer pipeline metrics.
func (ps *pipeStats) report(into map[string]float64) {
	snap := ps.reg.Snapshot()
	r := float64(max(ps.rounds, 1))
	into["topo.generate_s"] = median(ps.lt.generate)
	into["topo.mutate_s"] = median(ps.lt.mutate)
	into["bgp.table_s"] = median(ps.lt.table)
	into["bgp.routes_s"] = median(ps.lt.routes)
	into["bgp.collect_s"] = median(ps.lt.collect)
	into["asrel.infer_s"] = median(ps.lt.asrel)
	into["world.inputs_s"] = median(ps.lt.inputs)

	traceS := float64(ps.sim.traceNS.Load()) / 1e9
	sigS := float64(ps.sim.sigNS.Load()) / 1e9
	probeS := float64(ps.sim.probeNS.Load()) / 1e9
	into["probe.trace_busy_s"] = traceS / r
	into["probe.trace_calls"] = float64(ps.sim.traceCalls.Load())
	into["probe.signature_busy_s"] = sigS / r
	into["probe.signature_calls"] = float64(ps.sim.sigCalls.Load())
	into["probe.probe_busy_s"] = probeS / r
	into["probe.probe_calls"] = float64(ps.sim.probeCalls.Load())
	// Simulator busy time against the process CPU time of the traced
	// rounds: the rest of that CPU time is bdrmap's own (and the GC's).
	into["sim.share"] = ratio(ps.sim.busy().Seconds(), ps.cpu.Seconds())

	probeWall := float64(snap.Stage("driver.probe").WallNS) / 1e9
	aliasWall := float64(snap.Stage("driver.alias").WallNS) / 1e9
	into["scamper.probe_wall_s"] = probeWall / r
	into["scamper.alias_wall_s"] = aliasWall / r
	// The alias stage runs single-threaded, so its wall time splits
	// exactly into simulator calls and the scamper driver's own work.
	into["scamper.alias_self_s"] = (aliasWall - probeS) / r
	into["scamper.stopset_ratio"] = ratio(float64(snap.Counter("driver.traces_stopped")), float64(snap.Counter("driver.traces")))
	hits := float64(snap.Counter("rounds.cache.hit"))
	into["scamper.cache_hit_ratio"] = ratio(hits, hits+float64(snap.Counter("rounds.cache.miss")+snap.Counter("rounds.cache.refresh")))
	into["scamper.alias_pairs"] = float64(snap.Counter("driver.alias.pairs"))
	into["scamper.alias_replayed"] = float64(snap.Counter("rounds.alias.replayed"))

	into["core.infer_s"] = sum(ps.inferS) / r
	into["core.infer_max_s"] = maxOf(ps.inferS)
	into["core.merge_s"] = median(ps.mergeS)
	into["fleet.shard_s"] = median(ps.shardS)
	into["fleet.shard_max_s"] = maxOf(ps.shardS)
	into["fleet.queue_wait_s"] = median(ps.queueS)
	into["mapdb.compile_s"] = median(ps.compileS)
	into["mapdb.round_publish_ms"] = median(ps.publishMS)
	into["mapdb.segment_encode_s"] = median(ps.encodeS)
	into["mapdb.segment_bytes"] = median(ps.segmentBytes)
	into["trace.round_s"] = median(ps.roundWalls)
}

// ---------------------------------------------------------------------------
// World churn

// neighborASes lists the host's attached neighbor ASes in ascending order.
func neighborASes(n *topo.Network) []topo.ASN {
	seen := make(map[topo.ASN]bool)
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		seen[lt.FarAS] = true
	}
	out := make([]topo.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// hostBorders lists the host-side border routers in ascending order.
func hostBorders(n *topo.Network) []topo.RouterID {
	seen := make(map[topo.RouterID]bool)
	var out []topo.RouterID
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		if !seen[lt.NearRtr] {
			seen[lt.NearRtr] = true
			out = append(out, lt.NearRtr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// coldChurn applies the run seed's interconnect change to the reference
// world: one seeded neighbor is de-peered and one new customer attaches at
// a seeded host border router. The new ASN comes from the 32-bit private
// range, which the generator never allocates.
func coldChurn(n *topo.Network, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	victims := neighborASes(n)
	if len(victims) == 0 {
		return fmt.Errorf("no neighbor to de-peer")
	}
	topo.Depeer(n, victims[rng.Intn(len(victims))])
	borders := hostBorders(n)
	if len(borders) == 0 {
		return fmt.Errorf("no host border router")
	}
	asn := topo.ASN(4200000000 + uint32(rng.Intn(1<<20)))
	for n.ASes[asn] != nil {
		asn++
	}
	_, err := topo.AttachCustomer(n, borders[rng.Intn(len(borders))], asn)
	return err
}

// roundsChurn is mapdb.RunRounds' between-round change for round r,
// replayed through the public topo calls: odd rounds attach a customer
// at the first host border router, even rounds de-peer a drawn neighbor.
func roundsChurn(n *topo.Network, rng *rand.Rand, r int) error {
	if r%2 == 1 {
		border := firstBorder(n)
		if border < 0 {
			return fmt.Errorf("no host border router")
		}
		_, err := topo.AttachCustomer(n, border, topo.ASN(65000+r))
		return err
	}
	victims := neighborASes(n)
	if len(victims) > 0 {
		topo.Depeer(n, victims[rng.Intn(len(victims))])
	}
	return nil
}

// firstBorder is the near router of the first host interdomain link, the
// attachment point RunRounds uses.
func firstBorder(n *topo.Network) topo.RouterID {
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		return lt.NearRtr
	}
	return -1
}

// roundFP folds per-VP trace fingerprints into one round identity, as
// mapdb.RoundEvent.TraceFP does.
func roundFP(dss []*scamper.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, ds := range dss {
		if ds == nil {
			continue
		}
		binary.LittleEndian.PutUint64(buf[:], ds.TraceFingerprint())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ---------------------------------------------------------------------------
// Segment images

func segmentImage(s *mapdb.Snapshot) []byte {
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		panic(fmt.Sprintf("perfbench: segment encode into memory: %v", err))
	}
	return buf.Bytes()
}

// storeImages reads the generation segments a durable store left in dir,
// oldest first.
func storeImages(dir string) ([][]byte, error) {
	names, err := filepath.Glob(filepath.Join(dir, "gen-*.seg"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out [][]byte
	for _, p := range names {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no segment in %s", dir)
	}
	return out, nil
}

// progressiveImages compiles the generations a fleet publishing as shards
// complete would serve: the first k VPs' results for k = 1..len, the
// missing VPs marked degraded.
func progressiveImages(host topo.ASN, results []*core.Result) [][]byte {
	var out [][]byte
	for k := 1; k <= len(results); k++ {
		part := make([]*core.Result, len(results))
		copy(part, results[:k])
		snap := mapdb.Compile(host, part)
		var missing []string
		for _, r := range results[k:] {
			missing = append(missing, r.VPName)
		}
		if len(missing) > 0 {
			snap.MarkDegraded(missing)
		}
		out = append(out, segmentImage(snap))
	}
	return out
}
