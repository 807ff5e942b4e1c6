// Package eval reproduces the paper's evaluation: Table 1 (heuristic usage
// and BGP coverage per network), the §5.6 ground-truth validation, Figure
// 14 (per-prefix border-router and next-hop-AS diversity across 19 VPs),
// Figure 15 (marginal utility of additional VPs), Figure 16 (geographic
// spread of observed interdomain links), the §5.3 stop-set efficiency
// numbers, and the ablations DESIGN.md calls out. Every experiment runs on
// the synthetic substrate with the full measurement + inference pipeline —
// only presentation code lives here.
package eval

import (
	"fmt"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/core"
	"bdrmap/internal/ixp"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/rir"
	"bdrmap/internal/scamper"
	"bdrmap/internal/sibling"
	"bdrmap/internal/topo"
)

// Scenario bundles one generated internetwork with all derived inputs and
// per-VP measurement results.
type Scenario struct {
	Profile topo.Profile
	Seed    int64

	Net      *topo.Network
	Tab      *bgp.Table
	View     *bgp.View
	Rel      *asrel.Inference
	RIR      *rir.DB
	IXP      *ixp.PrefixList
	Sibs     *sibling.Set
	HostASNs map[topo.ASN]bool
	// Engine is a probe engine on Net for direct probing (TSLP
	// monitoring, the congestion example). No VP run touches it: every
	// run probes on a fresh engine of its own.
	Engine *probe.Engine
	// Obs collects metrics from every stage of the scenario's pipeline.
	Obs *obs.Registry
	// Trace records decision-provenance events from every stage. Always
	// non-nil after Build; the event stream (and its Fingerprint) is a pure
	// function of (profile, seed, cfg) regardless of worker count.
	Trace *obs.Tracer
	// Spans records the run's hierarchical span timeline (run → fleet →
	// vp → stage → target, plus remote agent-session spans grafted in
	// after a remote run). Always non-nil after Build; like the Trace stream its
	// deterministic portion is a pure function of (profile, seed, cfg)
	// regardless of worker count or healing fault schedule.
	Spans *obs.SpanLog
	// SpanRoot is the open "run" root span every fleet span parents under.
	// It stays open for the scenario's lifetime; exporters include it via
	// SpanLog.Snapshot.
	SpanRoot *obs.OpenSpan

	Datasets []*scamper.Dataset // per VP, filled by the fleet runner (fleet.go)
	Results  []*core.Result

	// hostAdj is the public view's host-AS adjacency set, built once at
	// Build time: classify is called per neighbor per report row, and a
	// linear NeighborsOf scan per call is quadratic on large profiles.
	hostAdj map[topo.ASN]bool
}

// Build generates the topology and derives every bdrmap input.
func Build(prof topo.Profile, seed int64) *Scenario {
	s := BuildFromNetwork(topo.Generate(prof, seed), seed)
	s.Profile = prof
	return s
}

// BuildFromNetwork derives every bdrmap input for an existing network
// (e.g. one reloaded with topo.Load). seed feeds the derived datasets'
// defect injection (WHOIS, PeeringDB).
func BuildFromNetwork(n *topo.Network, seed int64) *Scenario {
	tab := bgp.NewTable(n)
	view := bgp.Collect(tab, bgp.DefaultVantages(n))
	rel := asrel.Infer(view)
	rdb := rir.FromNetwork(n)
	pl := ixp.Merge(ixp.FromNetwork(n, seed))
	sibs := sibling.FromNetwork(n, seed)
	sibs.CurateHost(n)
	hosts := map[topo.ASN]bool{n.HostASN: true}
	for _, s := range sibs.SiblingsOf(n.HostASN) {
		hosts[s] = true
	}
	adj := make(map[topo.ASN]bool)
	for _, nb := range view.NeighborsOf(n.HostASN) {
		adj[nb] = true
	}
	reg := obs.New()
	eng := probe.New(n, tab)
	eng.SetObs(reg)
	spans := obs.NewSpanLog(0)
	root := spans.Begin(0, "run", fmt.Sprintf("host AS%d seed %d", n.HostASN, seed))
	return &Scenario{
		Seed: seed,
		Net:  n, Tab: tab, View: view, Rel: rel, RIR: rdb, IXP: pl,
		Sibs: sibs, Engine: eng, HostASNs: hosts, Obs: reg,
		Trace:    obs.NewTracer(0),
		Spans:    spans,
		SpanRoot: root,
		Datasets: make([]*scamper.Dataset, len(n.VPs)),
		Results:  make([]*core.Result, len(n.VPs)),
		hostAdj:  adj,
	}
}

// hostOrg reports whether asn belongs to the hosting organization.
func (s *Scenario) hostOrg(asn topo.ASN) bool { return s.HostASNs[asn] }

// neighborClass classifies a neighbor by the *inferred* relationship, the
// way the paper's Table 1 columns do.
type neighborClass int

const (
	classCust neighborClass = iota
	classPeer
	classProv
	classTraceOnly
	numClasses
)

func (c neighborClass) String() string {
	switch c {
	case classCust:
		return "cust"
	case classPeer:
		return "peer"
	case classProv:
		return "prov"
	default:
		return "trace"
	}
}

// classify buckets a neighbor AS: trace-only if absent from the public
// view's host adjacencies, else by inferred relationship.
func (s *Scenario) classify(asn topo.ASN) neighborClass {
	if !s.hostAdj[asn] {
		return classTraceOnly
	}
	switch s.Rel.Rel(s.Net.HostASN, asn) {
	case topo.RelCustomer:
		return classCust
	case topo.RelProvider:
		return classProv
	default:
		return classPeer
	}
}

// Validation is the §5.6 ground-truth comparison for one VP's result.
type Validation struct {
	Correct, Total int
	Wrong          []string
}

// Accuracy returns the fraction of inferred links that are correct.
func (v Validation) Accuracy() float64 {
	if v.Total == 0 {
		return 0
	}
	return float64(v.Correct) / float64(v.Total)
}

// Validate checks one result against ground truth: an inferred link is
// correct when its far address truly sits on a router of the inferred
// organization; a silent link is correct when the neighbor truly attaches
// at the named host router.
func (s *Scenario) Validate(res *core.Result) Validation {
	n := s.Net
	org := func(a topo.ASN) string {
		if as := n.ASes[a]; as != nil {
			return as.Org
		}
		return ""
	}
	attachedAt := make(map[topo.ASN]map[topo.RouterID]bool)
	note := func(far topo.ASN, near topo.RouterID) {
		if attachedAt[far] == nil {
			attachedAt[far] = make(map[topo.RouterID]bool)
		}
		attachedAt[far][near] = true
	}
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		note(lt.FarAS, lt.NearRtr)
	}
	for _, sess := range n.Sessions() {
		if sess.A == n.HostASN {
			note(sess.B, sess.ARtr)
		} else if sess.B == n.HostASN {
			note(sess.A, sess.BRtr)
		}
	}

	var v Validation
	for _, l := range res.Links {
		v.Total++
		if l.Far != nil {
			r := n.RouterByAddr(l.FarAddr)
			switch {
			case r == nil:
				v.Wrong = append(v.Wrong, fmt.Sprintf("far addr %v unknown", l.FarAddr))
			case org(r.Owner) == org(l.FarAS) && org(r.Owner) != org(n.HostASN):
				v.Correct++
			default:
				v.Wrong = append(v.Wrong, fmt.Sprintf("far %v inferred %v truth %v heur=%s",
					l.FarAddr, l.FarAS, r.Owner, l.Heuristic))
			}
			continue
		}
		nearR := n.RouterByAddr(l.Near.Addrs[0])
		if nearR != nil && attachedAt[l.FarAS][nearR.ID] {
			v.Correct++
		} else {
			v.Wrong = append(v.Wrong, fmt.Sprintf("silent %v at %v misplaced", l.FarAS, l.Near.Addrs[0]))
		}
	}
	s.Obs.Add("eval.validate.total", int64(v.Total))
	s.Obs.Add("eval.validate.correct", int64(v.Correct))
	return v
}

// ValidateIXP checks inferred links whose far address lies on an IXP
// peering LAN against the IXP-published membership data (the PCH-style
// address→ASN records), the way §5.6 validated the R&E network's
// route-server interconnections. Links at addresses the dataset does not
// record are skipped (the paper could only check published members).
func (s *Scenario) ValidateIXP(res *core.Result) (correct, total int) {
	for _, l := range res.Links {
		if l.Far == nil {
			continue
		}
		if _, isIXP := s.IXP.IsIXP(l.FarAddr); !isIXP {
			continue
		}
		member, ok := s.IXP.MemberAt(l.FarAddr)
		if !ok {
			continue
		}
		total++
		if member == l.FarAS || s.Sibs.SameOrg(member, l.FarAS) {
			correct++
		}
	}
	return correct, total
}

// Coverage reports the fraction of BGP-visible host neighbors with at
// least one inferred border router (the "Coverage of BGP" row of Table 1).
func (s *Scenario) Coverage(res *core.Result) (found, total int) {
	for _, nb := range s.View.NeighborsOf(s.Net.HostASN) {
		if s.hostOrg(nb) {
			continue
		}
		total++
		if len(res.Neighbors[nb]) > 0 {
			found++
		}
	}
	return found, total
}
