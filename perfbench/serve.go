package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"bdrmap/internal/mapdb"
	"bdrmap/internal/obs"
)

// The serving phase: a durable leader Store behind mapdb.HandlerWithStatus
// on loopback, an in-process mapdb.Follower and watchSubs WatchClient
// subscribers tailing it, a publisher that builds each generation of a
// fixed cycle fresh from its segment image and publishes it every
// publishEvery, and query senders. Untraced, loopSenders senders call
// the handler in process in closed-loop segments that alternate between
// running beside the publisher and running with it paused; traced, they
// step through an open-loop rate ladder and then a closed loop over
// loopback HTTP. Every
// response is checked against the direct Snapshot answer for the
// generation it names.

// harness is one serving phase's state.
type harness struct {
	b      *bench
	images [][]byte
	refs   []*mapdb.Snapshot // decoded once, never published
	pool   queryPool

	leader, fstore *mapdb.Store
	lreg, freg     *obs.Registry
	handler        http.Handler
	base, fbase    string

	// pubMu is held for each publish; paused skips the publisher's ticks.
	pubMu  sync.Mutex
	paused bool

	mu         sync.Mutex
	pubCall    map[int]time.Time // generation → Publish call time
	diffs      map[int]*mapdb.GenDiff
	adoptAt    map[int]time.Time
	frames     []map[int]time.Time
	pubWalls   []float64 // s: fresh build + durable publish
	pubMS      []float64 // ms: the durable Publish call alone
	diffLinks  []float64
	applyMS    []float64
	adoptMS    []float64
	failures   []error
	tapGen     int
	lastPubGen int
}

// refAt is the reference snapshot with the content of generation gen.
func (h *harness) refAt(gen int) *mapdb.Snapshot { return h.refs[(gen-1)%len(h.refs)] }

func (h *harness) fail(err error) {
	h.mu.Lock()
	h.failures = append(h.failures, err)
	h.mu.Unlock()
}

// serving runs one serving phase of length dur over the generation cycle
// images. It sets the query, replication and watch metrics and, traced,
// the serving-layer metrics.
func (b *bench) serving(images [][]byte, dur time.Duration) error {
	h := &harness{
		b:       b,
		images:  images,
		lreg:    obs.New(),
		freg:    obs.New(),
		pubCall: make(map[int]time.Time),
		diffs:   make(map[int]*mapdb.GenDiff),
		adoptAt: make(map[int]time.Time),
		frames:  make([]map[int]time.Time, watchSubs),
	}
	for i := range h.frames {
		h.frames[i] = make(map[int]time.Time)
	}
	for _, img := range images {
		s, err := mapdb.ReadSegment(img)
		if err != nil {
			return fmt.Errorf("decode generation image: %w", err)
		}
		h.refs = append(h.refs, s)
	}
	h.pool = newQueryPool(h.refs, b.seed)

	// Each serving phase starts a fresh durable store, so generation g
	// carries image (g-1) mod len(images) as refAt assumes.
	dir, err := os.MkdirTemp(b.dir, "serve-leader-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h.leader, err = mapdb.OpenStore(dir, 0, h.lreg)
	if err != nil {
		return err
	}
	h.fstore = mapdb.NewStore(0, h.freg)
	first, err := mapdb.ReadSegment(images[0])
	if err != nil {
		return err
	}
	h.leader.Publish(first)
	h.lastPubGen = first.Gen()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	h.handler = mapdb.HandlerWithStatus(h.leader, h.lreg, nil)
	lsrv, base, err := startServer(h.handler, &wg)
	if err != nil {
		return err
	}
	defer lsrv.Close()
	fsrv, fbase, err := startServer(mapdb.HandlerWithStatus(h.fstore, h.freg, nil), &wg)
	if err != nil {
		return err
	}
	defer fsrv.Close()
	h.base, h.fbase = base, fbase

	// Adoption times, observed through the follower Store's own watch.
	fch, fcancel, _ := h.fstore.Watch(1 << 14)
	defer fcancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case d, ok := <-fch:
				if !ok {
					h.fail(errors.New("follower store watch dropped"))
					return
				}
				h.mu.Lock()
				h.adoptAt[d.To] = time.Now()
				h.mu.Unlock()
			case <-ctx.Done():
				return
			}
		}
	}()
	f := &mapdb.Follower{Leader: base, Store: h.fstore, Reg: h.freg, Client: &http.Client{},
		RedialMin: 10 * time.Millisecond, RedialMax: 200 * time.Millisecond}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = f.Run(ctx)
	}()

	hellos := make(chan struct{}, watchSubs)
	for i := 0; i < watchSubs; i++ {
		i := i
		wc := &mapdb.WatchClient{Base: base, Client: &http.Client{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := wc.Run(ctx, func(fr mapdb.WatchFrame) error {
				switch {
				case fr.Type == "hello":
					hellos <- struct{}{}
				case fr.Type == "diff" && fr.Diff != nil:
					now := time.Now()
					h.mu.Lock()
					h.frames[i][fr.Diff.To] = now
					h.mu.Unlock()
				}
				return nil
			})
			if err != nil && ctx.Err() == nil {
				h.fail(fmt.Errorf("watch subscriber %d: %w", i, err))
			}
		}()
	}
	if b.traced {
		if err := h.startTap(ctx, &wg); err != nil {
			return err
		}
	}

	// Everyone is subscribed before the first measured publish.
	for i := 0; i < watchSubs; i++ {
		select {
		case <-hellos:
		case <-time.After(10 * time.Second):
			return errors.New("watch subscriber never said hello")
		}
	}
	if err := waitFor(10*time.Second, func() bool {
		cur := h.fstore.Current()
		return cur != nil && cur.Gen() == first.Gen() && h.lreg.Snapshot().Counter("mapdb.http.watch") >= 1+watchSubs
	}); err != nil {
		return fmt.Errorf("follower never synced: %w", err)
	}

	mark := markAlloc()
	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		h.publisher(stop)
	}()
	if err := waitFor(5*time.Second, func() bool { return h.leader.Current().Gen() >= first.Gen()+1 }); err != nil {
		close(stop)
		<-pubDone
		return err
	}
	// Untraced, in-process closed-loop segments alternate between running
	// beside the publisher and running with it paused and the replicas
	// idle, so both metrics sample the whole phase. Traced, the phase is
	// the open-loop ladder for latencies, replication and watch lag at set
	// rates, then a closed loop over loopback HTTP beside the publisher.
	var rungs []rungResult
	var allocMB float64
	var lagGen int
	if b.traced {
		for ri, rate := range ladder {
			rungs = append(rungs, h.rung(ri, rate, dur/time.Duration(2*len(ladder))))
		}
		allocMB, _ = mark.since()
		h.mu.Lock()
		lagGen = h.lastPubGen
		h.mu.Unlock()
		lb := h.closedLoop(h.newSenders(1, false), dur-dur/2)
		b.layer["serve.loopback_rps"] = median(lb.rates)
		b.layer["serve.loopback_cpu_us"] = median(lb.cpuUS)
	} else {
		ss := h.newSenders(1, true)
		var rates, cpuUS []float64
		// Every slice holds at least one segment of each kind.
		seg := min(loopSegment, dur/2)
		for sent, k := time.Duration(0), 0; sent < dur; k++ {
			publishing := k%2 == 0
			if publishing {
				h.resume()
			} else if err := h.pause(); err != nil {
				b.mismatch("replicas never caught up before an idle segment: %v", err)
			}
			rate, cpu, elapsed := h.segment(ss, min(seg, dur-sent))
			sent += elapsed
			if publishing {
				rates = append(rates, rate)
			} else {
				cpuUS = append(cpuUS, cpu)
			}
		}
		ss.close()
		h.resume()
		b.loopRates = append(b.loopRates, rates...)
		b.loopCPU = append(b.loopCPU, cpuUS...)
	}
	close(stop)
	<-pubDone

	h.mu.Lock()
	lastGen := h.lastPubGen
	h.mu.Unlock()
	if err := waitFor(10*time.Second, func() bool { return h.caughtUp(lastGen) }); err != nil {
		b.mismatch("follower or watchers never reached generation %d", lastGen)
	}

	h.checkReplicas(first.Gen(), lastGen)
	if b.traced {
		h.traceLayers(rungs)
	}

	cancel()
	lsrv.Close()
	fsrv.Close()
	wg.Wait()

	h.report(rungs, first.Gen(), lagGen)
	for _, e := range h.failures {
		b.failOp(e)
	}
	pubs := len(h.pubWalls)
	// Publishes, follower applies and watch deliveries.
	b.attempted += pubs * (2 + watchSubs)
	b.layer["serve.alloc_per_publish_mb"] = allocMB / float64(max(lagGen-first.Gen(), 1))
	return nil
}

func startServer(handler http.Handler, wg *sync.WaitGroup) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// publisher publishes the next generation of the cycle every publishEvery,
// skipping ticks while paused, until stop closes. Generation g carries
// image (g-1) mod len(images), as refAt assumes.
func (h *harness) publisher(stop <-chan struct{}) {
	tick := time.NewTicker(publishEvery)
	defer tick.Stop()
	for k := 1; ; k++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		h.pubMu.Lock()
		if h.paused {
			h.pubMu.Unlock()
			k--
			continue
		}
		psp := h.b.spans.begin(0, "serve.publish", "")
		t0 := time.Now()
		var snap *mapdb.Snapshot
		var err error
		h.b.timed(psp.id(), "serve.build", "", func() { snap, err = mapdb.ReadSegment(h.images[k%len(h.images)]) })
		if err != nil {
			psp.end()
			h.pubMu.Unlock()
			h.fail(fmt.Errorf("build generation: %w", err))
			continue
		}
		tc := time.Now()
		var d *mapdb.GenDiff
		h.b.timed(psp.id(), "mapdb.publish", "", func() { d = h.leader.Publish(snap) })
		te := time.Now()
		psp.end()
		h.mu.Lock()
		h.pubCall[snap.Gen()] = tc
		h.diffs[snap.Gen()] = d
		h.lastPubGen = snap.Gen()
		h.pubWalls = append(h.pubWalls, te.Sub(t0).Seconds())
		h.pubMS = append(h.pubMS, ms(te.Sub(tc)))
		if d != nil {
			h.diffLinks = append(h.diffLinks, float64(len(d.Added)+len(d.Removed)))
		}
		h.mu.Unlock()
		h.pubMu.Unlock()
	}
}

// pause stops the publisher after its current publish and waits until the
// follower and every subscriber have taken the last generation, so no
// replication work is left running.
func (h *harness) pause() error {
	h.pubMu.Lock()
	h.paused = true
	h.pubMu.Unlock()
	h.mu.Lock()
	gen := h.lastPubGen
	h.mu.Unlock()
	return waitFor(10*time.Second, func() bool { return h.caughtUp(gen) })
}

func (h *harness) resume() {
	h.pubMu.Lock()
	h.paused = false
	h.pubMu.Unlock()
}

// caughtUp reports whether the follower, every subscriber and, traced, the
// shadow replica have taken generation gen.
func (h *harness) caughtUp(gen int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.adoptAt[gen]; !ok {
		return false
	}
	for _, fr := range h.frames {
		if _, ok := fr[gen]; !ok {
			return false
		}
	}
	return !h.b.traced || h.tapGen >= gen
}

// startTap replays the leader's diff stream in process onto a shadow
// follower, timing Snapshot.Apply and Store.Adopt separately: the
// follower's own apply path runs inside one call the benchmark cannot
// split.
func (h *harness) startTap(ctx context.Context, wg *sync.WaitGroup) error {
	shadow, err := mapdb.ReadSegment(segmentImage(h.leader.Current()))
	if err != nil {
		return err
	}
	st := mapdb.NewStore(0, nil)
	if err := st.Adopt(shadow, nil); err != nil {
		return err
	}
	ch, cancel, _ := h.leader.Watch(1 << 14)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cancel()
		for {
			var d *mapdb.GenDiff
			select {
			case d = <-ch:
			case <-ctx.Done():
				return
			}
			sp := h.b.spans.begin(0, "replicate", strconv.Itoa(d.To))
			var next *mapdb.Snapshot
			var err error
			a := h.b.timed(sp.id(), "replicate.apply", "", func() { next, err = shadow.Apply(d) })
			if err != nil {
				sp.end()
				h.fail(fmt.Errorf("shadow apply of generation %d: %w", d.To, err))
				return
			}
			c := h.b.timed(sp.id(), "replicate.adopt", "", func() { err = st.Adopt(next, d) })
			sp.end()
			if err != nil {
				h.fail(fmt.Errorf("shadow adopt of generation %d: %w", d.To, err))
				return
			}
			shadow = next
			h.mu.Lock()
			h.applyMS = append(h.applyMS, a*1000)
			h.adoptMS = append(h.adoptMS, c*1000)
			h.tapGen = d.To
			h.mu.Unlock()
		}
	}()
	return nil
}

// checkReplicas compares the follower with the leader once both are idle,
// and the watch fan-out with the publish count.
func (h *harness) checkReplicas(firstGen, lastGen int) {
	b := h.b
	lg, err1 := httpGet(h.base + "/v1/gen")
	fg, err2 := httpGet(h.fbase + "/v1/gen")
	switch {
	case err1 != nil || err2 != nil:
		b.mismatch("/v1/gen: leader %v, follower %v", err1, err2)
	case !bytes.Equal(lg, fg):
		b.mismatch("follower /v1/gen differs from the leader's")
	}
	// The follower rebuilds each generation from diffs, so its owner
	// records are stored in another order: links must match byte for
	// byte, owners answer for answer.
	lcur, fcur := h.leader.Current(), h.fstore.Current()
	if fcur == nil || fcur.Gen() != lcur.Gen() || !equalJSON(toLinksJSON(lcur.Links()), toLinksJSON(fcur.Links())) {
		b.mismatch("follower link bytes differ from the leader's at generation %d", lcur.Gen())
	} else {
		for _, a := range h.pool.owners {
			lo, lok := lcur.Owner(a)
			fo, fok := fcur.Owner(a)
			if lo != fo || lok != fok {
				b.mismatch("follower owner of %v is %+v, leader's %+v", a, fo, lo)
				break
			}
		}
	}
	want := lastGen - firstGen
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, fr := range h.frames {
		if len(fr) != want {
			b.mismatch("watch subscriber %d decoded %d diff frames, want %d generations", i, len(fr), want)
		}
	}
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// report sets the ladder's latencies and the replication and watch lags
// of the generations published up to lastGen.
func (h *harness) report(rungs []rungResult, firstGen, lastGen int) {
	l := h.b.layer
	for _, r := range rungs {
		l[rateName("query_p50_us", r.rate)] = r.p50
		l[rateName("query_p99_us", r.rate)] = r.p99
	}
	var repl, watch []float64
	for g := firstGen + 1; g <= lastGen; g++ {
		pc, ok := h.pubCall[g]
		if !ok {
			continue
		}
		if at, ok := h.adoptAt[g]; ok {
			repl = append(repl, ms(at.Sub(pc)))
		}
		for _, fr := range h.frames {
			if at, ok := fr[g]; ok {
				watch = append(watch, ms(at.Sub(pc)))
			}
		}
	}
	l["repl_lag_p50_ms"] = median(repl)
	l["watch_lag_p50_ms"] = median(watch)
	l["repl_lag_p99_ms"] = windowedP99(repl, lagWindow)
	l["watch_lag_p99_ms"] = windowedP99(watch, lagWindow*watchSubs)
	l["serve.publish_cycle_ms"] = 1000 * median(h.pubWalls[:min(len(h.pubWalls), max(lastGen-firstGen, 1))])
}

// ---------------------------------------------------------------------------
// Serving-layer metrics (traced run)

func (h *harness) traceLayers(rungs []rungResult) {
	l := h.b.layer
	h.mu.Lock()
	l["mapdb.publish_ms"] = median(h.pubMS)
	l["mapdb.diff_links"] = median(h.diffLinks)
	l["follower.apply_ms"] = median(h.applyMS)
	l["follower.adopt_ms"] = median(h.adoptMS)
	frames := 0
	for _, fr := range h.frames {
		frames += len(fr)
	}
	h.mu.Unlock()
	l["watch.frames"] = float64(frames)
	ls, fs := h.lreg.Snapshot(), h.freg.Snapshot()
	l["watch.lagged"] = float64(ls.Counter("mapdb.watch.lagged"))
	l["follower.full_syncs"] = float64(fs.Counter("mapdb.follower.full_syncs"))
	l["follower.redials"] = float64(fs.Counter("mapdb.follower.redials"))
	top := rungs[len(rungs)-1]
	l["loadgen.late_ms"] = quantile(top.late, 0.99)

	// Direct lookups on the current generation, no HTTP.
	cur := h.leader.Current()
	const reps = 200000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		cur.Owner(h.pool.owners[i%len(h.pool.owners)])
	}
	l["mapdb.lookup_ns.owner"] = float64(time.Since(t0).Nanoseconds()) / reps
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		p := h.pool.pairs[i%len(h.pool.pairs)]
		cur.Link(p[0], p[1])
	}
	l["mapdb.lookup_ns.link"] = float64(time.Since(t0).Nanoseconds()) / reps
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		cur.Neighbors(h.pool.asns[i%len(h.pool.asns)])
	}
	l["mapdb.lookup_ns.neighbors"] = float64(time.Since(t0).Nanoseconds()) / reps

	// In-process handler time per kind, then what loopback HTTP adds on
	// top of it for owner lookups at the lowest ladder rate.
	rng := rand.New(rand.NewSource(h.b.seed))
	per := make(map[string][]float64)
	for len(per["owner"]) < 2000 || len(per["status"]) < 200 {
		q := h.pool.draw(rng)
		req := httptest.NewRequest(http.MethodGet, q.path(cur.Gen()), nil)
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.handler.ServeHTTP(w, req)
		per[q.kind] = append(per[q.kind], float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for _, k := range httpKinds {
		l["http.handler_us."+k] = median(per[k])
	}
	l["http.loopback_us"] = median(rungs[0].ownerUS) - l["http.handler_us.owner"]
}
