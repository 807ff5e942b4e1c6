package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"bdrmap/internal/mapdb"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// The query side of the serving phase: the open-loop generator, its
// request mix, and the check of every response against the direct
// Snapshot answer.

type queryPool struct {
	owners []netx.Addr
	misses []netx.Addr
	pairs  [][2]netx.Addr
	asns   []topo.ASN
}

// newQueryPool collects the addresses, hop pairs and neighbor ASes the
// generation cycle serves, plus addresses none of its generations owns.
func newQueryPool(refs []*mapdb.Snapshot, seed int64) queryPool {
	var p queryPool
	seenA := make(map[netx.Addr]bool)
	seenP := make(map[[2]netx.Addr]bool)
	seenN := make(map[topo.ASN]bool)
	for _, s := range refs {
		for _, l := range s.Links() {
			for _, a := range []netx.Addr{l.Near, l.Far} {
				if a.IsZero() || seenA[a] {
					continue
				}
				if _, ok := s.Owner(a); ok {
					seenA[a] = true
					p.owners = append(p.owners, a)
				}
			}
			if k := [2]netx.Addr{l.Near, l.Far}; !seenP[k] {
				seenP[k] = true
				p.pairs = append(p.pairs, k)
			}
		}
		for _, as := range s.NeighborASes() {
			if !seenN[as] {
				seenN[as] = true
				p.asns = append(p.asns, as)
			}
		}
	}
	sort.Slice(p.owners, func(i, j int) bool { return p.owners[i] < p.owners[j] })
	sort.Slice(p.pairs, func(i, j int) bool {
		if p.pairs[i][0] != p.pairs[j][0] {
			return p.pairs[i][0] < p.pairs[j][0]
		}
		return p.pairs[i][1] < p.pairs[j][1]
	})
	sort.Slice(p.asns, func(i, j int) bool { return p.asns[i] < p.asns[j] })
	rng := rand.New(rand.NewSource(seed))
	for len(p.misses) < 256 {
		// 198.18.0.0/15 is reserved for benchmarking and never generated.
		a := netx.AddrFromOctets(198, 18+byte(rng.Intn(2)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		owned := false
		for _, s := range refs {
			if _, ok := s.Owner(a); ok {
				owned = true
			}
		}
		if !owned {
			p.misses = append(p.misses, a)
		}
	}
	return p
}

// queryMix weights the query kinds, in httpKinds order. No measured
// traffic exists to copy, so the weights follow the repository's own
// query client: cmd/mapload's path list asks, per served link, one owner,
// one link and one neighbors query, and one gen and one status query per
// list (8:8:8:1:1 over its eight links). Owner misses and diffs, which no
// client in the repository issues in a loop, get the weight of the rarest
// endpoint it does call. The weights are an assumption, not a sample of
// operator traffic.
var queryMix = []int{8, 1, 8, 8, 1, 1, 1}

var queryMixTotal = func() int {
	t := 0
	for _, w := range queryMix {
		t += w
	}
	return t
}()

type query struct {
	kind      string
	addr      netx.Addr
	near, far netx.Addr
	asn       topo.ASN
}

func (p queryPool) draw(rng *rand.Rand) query {
	x := rng.Intn(queryMixTotal)
	kind := ""
	for i, w := range queryMix {
		if x < w {
			kind = httpKinds[i]
			break
		}
		x -= w
	}
	q := query{kind: kind}
	switch kind {
	case "owner":
		q.addr = p.owners[rng.Intn(len(p.owners))]
	case "owner_miss":
		q.addr = p.misses[rng.Intn(len(p.misses))]
	case "link":
		pr := p.pairs[rng.Intn(len(p.pairs))]
		q.near, q.far = pr[0], pr[1]
	case "neighbors":
		q.asn = p.asns[rng.Intn(len(p.asns))]
	}
	return q
}

// path renders the request; diff queries name the generation current at
// send time.
func (q query) path(cur int) string {
	switch q.kind {
	case "owner", "owner_miss":
		return "/v1/owner?ip=" + q.addr.String()
	case "link":
		if q.far.IsZero() {
			return "/v1/link?near=" + q.near.String()
		}
		return "/v1/link?near=" + q.near.String() + "&far=" + q.far.String()
	case "neighbors":
		return "/v1/neighbors?as=" + strconv.FormatUint(uint64(q.asn), 10)
	case "gen":
		return "/v1/gen"
	case "diff":
		return fmt.Sprintf("/v1/diff?from=%d&to=%d", cur-1, cur)
	default:
		return "/v1/status"
	}
}

type reqRec struct {
	q               query
	due, sent, done time.Time
	start           time.Time // the moment latency is measured from
	g0, g1          int
	status          int
	body            []byte
	err             error
}

type rungResult struct {
	rate     int
	p50, p99 float64 // µs
	late     []float64
	// ownerUS is the client-observed time of each owner lookup, send to
	// last byte, for the loopback share in the traced run.
	ownerUS []float64
}

// send issues one request on client and records its answer and the
// generations current before and after it.
func (h *harness) send(client *http.Client, r *reqRec) {
	r.sent = time.Now()
	r.g0 = h.leader.Current().Gen()
	resp, err := client.Get(h.base + r.q.path(r.g0))
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.err = err
	r.done = time.Now()
	r.g1 = h.leader.Current().Gen()
}

// sendDirect serves one request in process through the leader's handler.
func (h *harness) sendDirect(r *reqRec) {
	r.sent = time.Now()
	r.g0 = h.leader.Current().Gen()
	w := httptest.NewRecorder()
	h.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, r.q.path(r.g0), nil))
	r.status = w.Code
	r.body = w.Body.Bytes()
	r.done = time.Now()
	r.g1 = h.leader.Current().Gen()
}

// check verifies every answered request and counts them as attempted.
func (h *harness) check(recs []reqRec) {
	for i := range recs {
		r := &recs[i]
		if err := h.verify(r); err != nil {
			if r.err != nil {
				h.fail(err)
			} else {
				h.b.mismatch("%s: %v", r.q.path(r.g0), err)
			}
		}
	}
	h.b.attempted += len(recs)
}

func newQueryClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// rung runs one open-loop step of the traced run: request i is due at
// start + i/rate, and queryConns connections send in parallel. A request
// that falls due while its connection is still busy is timed from its
// due time, so a stall's wait on every later request is counted. A
// request that falls due while its connection sleeps is timed from when
// it was sent: the generator's timer wakes up to a millisecond late, and
// that lateness is the generator's, reported as loadgen.late_ms.
func (h *harness) rung(idx, rate int, dur time.Duration) rungResult {
	n := max(1, int(float64(rate)*dur.Seconds()))
	rng := rand.New(rand.NewSource(h.b.seed*1000 + int64(idx)))
	recs := make([]reqRec, n)
	for i := range recs {
		recs[i].q = h.pool.draw(rng)
	}
	period := time.Second / time.Duration(rate)
	rsp := h.b.spans.begin(0, "http.rung", strconv.Itoa(rate))
	start := time.Now().Add(2 * time.Millisecond)
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < queryConns; c++ {
		client := newQueryClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			var prevDone time.Time
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= int64(n) {
					return
				}
				r := &recs[i]
				r.due = start.Add(time.Duration(i) * period)
				if d := time.Until(r.due); d > 0 {
					time.Sleep(d)
				}
				sp := h.b.spans.begin(rsp.id(), "http.request", r.q.kind)
				h.send(client, r)
				r.start = r.sent
				if r.due.Before(prevDone) {
					r.start = r.due
				}
				prevDone = r.done
				sp.end()
			}
		}()
	}
	wg.Wait()
	rsp.end()

	res := rungResult{rate: rate}
	lat := make([]float64, n)
	for i := range recs {
		r := &recs[i]
		res.late = append(res.late, ms(r.sent.Sub(r.due)))
		lat[i] = float64(r.done.Sub(r.start)) / 1e3
		if r.q.kind == "owner" && r.err == nil {
			res.ownerUS = append(res.ownerUS, float64(r.done.Sub(r.sent).Nanoseconds())/1e3)
		}
	}
	h.check(recs)
	res.p50, res.p99 = quantile(lat, 0.5), windowedP99(lat, queryWindow)
	return res
}

// loopResult is one closed-loop window, measured segment by segment.
type loopResult struct {
	rates []float64 // queries per second of each segment
	cpuUS []float64 // process CPU µs per query of each segment
}

// loopSegment bounds how many answers a closed loop holds before it
// checks them: the clock and the CPU meter stop while a segment's answers
// are checked, so checking costs neither time nor CPU in the window.
// Windows report the median over their segments, because a shared 2-vCPU
// runner's speed swings by 15% from one half second to the next. Short
// segments keep the answers the collector must trace while a segment runs
// few, and give the median many samples.
const loopSegment = 250 * time.Millisecond

// senders are loopSenders closed-loop query senders. Over loopback HTTP
// each is a client connection; direct, each calls the leader's handler in
// process, which leaves out the net/http transport and measures the
// serving tier's own code.
type senders struct {
	direct  bool
	clients []*http.Client
	rngs    []*rand.Rand
}

func (h *harness) newSenders(idx int, direct bool) *senders {
	ss := &senders{direct: direct, clients: make([]*http.Client, loopSenders), rngs: make([]*rand.Rand, loopSenders)}
	for c := range ss.rngs {
		ss.rngs[c] = rand.New(rand.NewSource(h.b.seed*1000 + int64(100*idx+c)))
		if !direct {
			ss.clients[c] = newQueryClient()
		}
	}
	return ss
}

func (ss *senders) close() {
	for _, c := range ss.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// segment keeps every sender busy for d: each sends its next request as
// soon as it has the previous answer, so the segment measures how many
// queries the senders complete back to back. It returns the segment's rate,
// its process CPU time per query and its length, then checks the answers
// and collects their garbage off the clock.
func (h *harness) segment(ss *senders, d time.Duration) (rate, cpuUS float64, elapsed time.Duration) {
	per := make([][]reqRec, len(ss.rngs))
	var wg sync.WaitGroup
	c0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := range ss.rngs {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recs []reqRec
			for time.Now().Before(deadline) {
				recs = append(recs, reqRec{q: h.pool.draw(ss.rngs[c])})
				if ss.direct {
					h.sendDirect(&recs[len(recs)-1])
				} else {
					h.send(ss.clients[c], &recs[len(recs)-1])
				}
			}
			per[c] = recs
		}()
	}
	wg.Wait()
	elapsed, cpu := time.Since(t0), cpuTime()-c0
	n := 0
	for _, recs := range per {
		n += len(recs)
		h.check(recs)
	}
	runtime.GC()
	return float64(n) / elapsed.Seconds(), float64(cpu.Nanoseconds()) / 1e3 / float64(max(n, 1)), elapsed
}

// closedLoop runs the senders in segments for dur of sending time.
func (h *harness) closedLoop(ss *senders, dur time.Duration) loopResult {
	sp := h.b.spans.begin(0, "http.loop", "")
	defer sp.end()
	defer ss.close()
	var res loopResult
	for sent := time.Duration(0); sent < dur; {
		rate, cpu, elapsed := h.segment(ss, min(loopSegment, dur-sent))
		sent += elapsed
		res.rates = append(res.rates, rate)
		res.cpuUS = append(res.cpuUS, cpu)
	}
	return res
}

// windowedP99 is the median over consecutive windows of size samples of
// each window's p99: one stall of the shared machine moves one window's
// p99, not the reported figure. A sample shorter than two windows is one
// window.
func windowedP99(xs []float64, size int) float64 {
	var p99s []float64
	for i := 0; i+size <= len(xs); i += size {
		end := i + size
		if len(xs)-end < size {
			end = len(xs)
		}
		p99s = append(p99s, quantile(xs[i:end], 0.99))
	}
	if len(p99s) == 0 {
		return quantile(xs, 0.99)
	}
	return median(p99s)
}

// ---------------------------------------------------------------------------
// Response checks

type linkJSON struct {
	Near      string `json:"near"`
	Far       string `json:"far"`
	FarAS     uint32 `json:"far_as"`
	Heuristic string `json:"heuristic,omitempty"`
}

func toLinkJSON(l mapdb.Link) linkJSON {
	far := l.Far.String()
	if l.Far.IsZero() {
		far = "silent"
	}
	return linkJSON{Near: l.Near.String(), Far: far, FarAS: uint32(l.FarAS), Heuristic: l.Heuristic}
}

func toLinksJSON(ls []mapdb.Link) []linkJSON {
	out := make([]linkJSON, len(ls))
	for i, l := range ls {
		out[i] = toLinkJSON(l)
	}
	return out
}

// absentSomewhere reports whether some generation in [g0, g1] answers a
// query with "not found", which is what a 404 claims.
func (h *harness) absentSomewhere(g0, g1 int, present func(*mapdb.Snapshot) bool) bool {
	for g := g0; g <= g1; g++ {
		if !present(h.refAt(g)) {
			return true
		}
	}
	return false
}

// verify checks one response against the direct Snapshot answer of the
// generation it names (or, for a 404, of some generation current while
// the request was in flight).
func (h *harness) verify(r *reqRec) error {
	if r.err != nil {
		return r.err
	}
	q := r.q
	notFound := r.status == http.StatusNotFound
	if r.status != http.StatusOK && !notFound {
		return fmt.Errorf("status %d: %s", r.status, r.body)
	}
	switch q.kind {
	case "owner", "owner_miss":
		if notFound {
			if !h.absentSomewhere(r.g0, r.g1, func(s *mapdb.Snapshot) bool { _, ok := s.Owner(q.addr); return ok }) {
				return errors.New("404 for an owned address")
			}
			return nil
		}
		var got struct {
			Gen       int    `json:"gen"`
			IP        string `json:"ip"`
			AS        uint32 `json:"as"`
			Heuristic string `json:"heuristic"`
			Host      bool   `json:"host"`
			HopDist   int    `json:"hop_dist"`
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		o, ok := h.refAt(got.Gen).Owner(q.addr)
		if !ok || got.IP != q.addr.String() || got.AS != uint32(o.AS) || got.Heuristic != o.Heuristic ||
			got.Host != o.Host || got.HopDist != o.HopDist {
			return fmt.Errorf("owner answer %+v, direct %+v (found %v)", got, o, ok)
		}
	case "link":
		if notFound {
			if !h.absentSomewhere(r.g0, r.g1, func(s *mapdb.Snapshot) bool { _, ok := s.Link(q.near, q.far); return ok }) {
				return errors.New("404 for a served link")
			}
			return nil
		}
		var got struct {
			Gen  int      `json:"gen"`
			Link linkJSON `json:"link"`
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		l, ok := h.refAt(got.Gen).Link(q.near, q.far)
		if !ok || got.Link != toLinkJSON(l) {
			return fmt.Errorf("link answer %+v, direct %+v (found %v)", got.Link, toLinkJSON(l), ok)
		}
	case "neighbors":
		if notFound {
			if !h.absentSomewhere(r.g0, r.g1, func(s *mapdb.Snapshot) bool { return len(s.Neighbors(q.asn)) > 0 }) {
				return errors.New("404 for a served neighbor")
			}
			return nil
		}
		var got struct {
			Gen   int        `json:"gen"`
			AS    uint32     `json:"as"`
			Count int        `json:"count"`
			Links []linkJSON `json:"links"`
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		want := toLinksJSON(h.refAt(got.Gen).Neighbors(q.asn))
		if got.AS != uint32(q.asn) || got.Count != len(want) || !equalJSON(got.Links, want) {
			return fmt.Errorf("neighbors answer for AS%d differs from the direct answer", q.asn)
		}
	case "gen":
		var got struct {
			Gen       int      `json:"gen"`
			HostAS    uint32   `json:"host_as"`
			VPs       []string `json:"vps"`
			Links     int      `json:"links"`
			Neighbors int      `json:"neighbors"`
			Owners    int      `json:"owners"`
		}
		if notFound || json.Unmarshal(r.body, &got) != nil {
			return fmt.Errorf("bad /v1/gen answer: %s", r.body)
		}
		s := h.refAt(got.Gen)
		if got.HostAS != uint32(s.HostASN()) || !equalJSON(got.VPs, s.VPs()) || got.Links != s.NumLinks() ||
			got.Neighbors != len(s.NeighborASes()) || got.Owners != s.NumOwners() {
			return fmt.Errorf("gen answer %+v differs from the direct answer", got)
		}
	case "diff":
		from := r.g0 - 1
		if notFound {
			if from > r.g1-mapdb.DefaultHistory {
				return errors.New("404 for a retained generation pair")
			}
			return nil
		}
		var got struct {
			From             int        `json:"from"`
			To               int        `json:"to"`
			Added            []linkJSON `json:"added"`
			Removed          []linkJSON `json:"removed"`
			NeighborsAdded   []uint32   `json:"neighbors_added"`
			NeighborsRemoved []uint32   `json:"neighbors_removed"`
		}
		if err := json.Unmarshal(r.body, &got); err != nil {
			return err
		}
		h.mu.Lock()
		d := h.diffs[got.To]
		h.mu.Unlock()
		if d == nil || got.From != d.From || !equalJSON(got.Added, toLinksJSON(d.Added)) ||
			!equalJSON(got.Removed, toLinksJSON(d.Removed)) ||
			!equalJSON(got.NeighborsAdded, asnList(d.NeighborsAdded)) || !equalJSON(got.NeighborsRemoved, asnList(d.NeighborsRemoved)) {
			return fmt.Errorf("diff %d→%d differs from the published diff", got.From, got.To)
		}
	case "status":
		var got struct {
			Published bool `json:"published"`
			Gen       int  `json:"gen"`
		}
		if notFound || json.Unmarshal(r.body, &got) != nil || !got.Published || got.Gen < r.g0 || got.Gen > r.g1 {
			return fmt.Errorf("bad /v1/status answer")
		}
	}
	return nil
}

func asnList(as []topo.ASN) []uint32 {
	out := make([]uint32, len(as))
	for i, a := range as {
		out[i] = uint32(a)
	}
	return out
}

// equalJSON compares two values by their JSON encodings, so nil and empty
// lists compare equal only when they encode alike.
func equalJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	if err1 != nil || err2 != nil {
		return false
	}
	if string(x) == "null" {
		x = []byte("[]")
	}
	if string(y) == "null" {
		y = []byte("[]")
	}
	return bytes.Equal(x, y)
}
