package main

import (
	"sync/atomic"
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/scamper"
)

// simCounters accumulates the time the driver spends inside the simulator,
// by call kind. Busy times are goroutine-seconds: with parallel probing
// workers they can exceed the stage's wall time.
type simCounters struct {
	traceNS, traceCalls atomic.Int64
	sigNS, sigCalls     atomic.Int64
	probeNS, probeCalls atomic.Int64
}

func (c *simCounters) busy() time.Duration {
	return time.Duration(c.traceNS.Load() + c.sigNS.Load() + c.probeNS.Load())
}

// timedProber wraps the simulator's LocalProber and times every call the
// driver makes into it. It forwards every optional interface LocalProber
// implements (lanes, path signatures, the measurement clock), so every
// probe, trace and signature walk runs as it does with the bare prober.
//
// Two paths differ, because scamper.Driver type-asserts the concrete
// LocalProber. Driver.now reads the clock through Clock instead of the
// engine directly, which returns the same value. resolveAliases stamps
// alias-stage provenance events with a timestamp relative to the stage's
// start only for a LocalProber, so behind the wrapper every alias event
// carries SimNS 0. Neither path sends a probe or changes a verdict, and
// the alias stage's cost is one clock read per event, so timings are
// unaffected. programTraceDigest hashes the program's provenance events
// with alias timestamps set aside, and the traced run checks that digest
// against the untraced run's, so the claim that the traced run reproduces
// the untraced one covers the alias stage too.
type timedProber struct {
	p scamper.LocalProber
	c *simCounters
}

var (
	_ scamper.LaneProber      = timedProber{}
	_ scamper.SignatureProber = timedProber{}
)

func (t timedProber) Name() string { return t.p.Name() }

func (t timedProber) Trace(dst netx.Addr, stopSet map[netx.Addr]bool) probe.TraceResult {
	t0 := time.Now()
	r := t.p.Trace(dst, stopSet)
	t.c.traceNS.Add(int64(time.Since(t0)))
	t.c.traceCalls.Add(1)
	return r
}

func (t timedProber) TraceLane(dst netx.Addr, stopSet map[netx.Addr]bool, lane *probe.Lane) probe.TraceResult {
	t0 := time.Now()
	r := t.p.TraceLane(dst, stopSet, lane)
	t.c.traceNS.Add(int64(time.Since(t0)))
	t.c.traceCalls.Add(1)
	return r
}

func (t timedProber) Probe(target netx.Addr, m probe.Method) probe.Response {
	t0 := time.Now()
	r := t.p.Probe(target, m)
	t.c.probeNS.Add(int64(time.Since(t0)))
	t.c.probeCalls.Add(1)
	return r
}

func (t timedProber) PathSignature(dst netx.Addr) uint64 {
	t0 := time.Now()
	s := t.p.PathSignature(dst)
	t.c.sigNS.Add(int64(time.Since(t0)))
	t.c.sigCalls.Add(1)
	return s
}

func (t timedProber) NewLane(start time.Duration) *probe.Lane { return t.p.NewLane(start) }

func (t timedProber) Advance(d time.Duration) { t.p.Advance(d) }

// Clock reports the engine's simulated clock, which the driver otherwise
// reads directly from a bare LocalProber.
func (t timedProber) Clock() (time.Duration, error) { return t.p.E.Now(), nil }

// programTraceDigest fingerprints the program's own provenance events
// (probe, alias and core stages) with every alias-stage timestamp set to
// zero: the one field the wrapped prober changes.
func programTraceDigest(t *obs.Tracer) string {
	events := t.Events()
	for i := range events {
		if events[i].Stage == obs.StageAlias {
			events[i].SimNS = 0
		}
	}
	return obs.FingerprintEvents(events)
}
