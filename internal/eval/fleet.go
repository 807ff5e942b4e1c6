package eval

import (
	"fmt"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/faults"
	"bdrmap/internal/fleet"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/scamper"
)

// The fleet runner is the only code that runs a vantage point. RunFleet,
// RunAll, RunVP and RunVPRemote all schedule shards — one per VP — on
// the internal/fleet coordinator; the single-VP entry points are the
// one-shard subset of the same run.
//
// Isolation is what makes the schedule irrelevant: each shard attempt
// runs on a fresh probe.Engine, so its measurement is a pure function of
// (profile, seed, cfg, faultSpec), and records into private trace/span
// fragments the coordinator merges back in VP order. MapBorders(i) thus
// equals MapAll()[i] whatever VPs ran before it. Results/Datasets are
// only written after the pool drains, on the caller's goroutine.

// FleetVP configures one vantage point's transport for RunFleet.
type FleetVP struct {
	// Remote runs the VP as a protocol-v2 agent dialing the scenario's
	// in-process controller over loopback TCP, instead of an in-process
	// LocalProber.
	Remote bool
	// FaultSpecs injects deterministic faults into the remote session,
	// one spec per attempt: attempt k uses FaultSpecs[min(k, len-1)], so
	// {"seed=3,kill=30", ""} means "kill the session mid-shard once, then
	// let the retry run clean". Empty means a clean link on every attempt.
	FaultSpecs []string
}

// FleetOptions tunes one RunFleet invocation. The zero value runs every
// VP locally on one worker in VP order — exactly RunAll.
type FleetOptions struct {
	// Workers, Quorum, Retries, StragglerTimeout and Order are the
	// coordinator knobs; see fleet.Config.
	Workers          int
	Quorum           int
	Retries          int
	StragglerTimeout time.Duration
	Order            []int
	// VPs overrides transport per VP index; absent entries run locally.
	VPs map[int]FleetVP
	// States and Prevs carry per-VP cross-round state (indexed like
	// Net.VPs): a VP's measurement memory from the previous round and its
	// previous inference result, which the driver replays and the core
	// splices. A shard's RoundState stays with the shard across retries
	// and worker reassignment.
	States []*scamper.RoundState
	Prevs  []*core.Result
	// Opts is passed to every shard's inference.
	Opts core.Options
	// OnPublish receives the quorum-time partial and the final merged
	// generations (see fleet.Config.OnPublish).
	OnPublish func(fleet.PublishEvent)
	// Gate, when set, is called at the start of every attempt of VP i —
	// a test hook for pinning straggler and quorum schedules.
	Gate func(vp int)
}

// claimTimeout bounds the wait for a remote agent's handshake per attempt:
// generous against the millisecond redial schedule the loopback agents
// use. An agent that exits first ends the wait at once.
const claimTimeout = 5 * time.Second

// fleetRuntime is the shared remote-transport state of one RunFleet call:
// a single controller and its session router, claimed by whichever worker
// is running a remote shard.
type fleetRuntime struct {
	ctrl   *scamper.Controller
	router *scamper.Router
}

// RunFleet measures every VP through the fleet coordinator and fills
// Datasets/Results like RunAll. Already-run VPs (memoized Results) fold
// into the merge without re-measuring. The returned summary carries
// per-shard dispositions and the final merged map; err is non-nil only
// for configuration or listener failures — per-shard failures are
// reported in the summary (and leave that VP's Results slot nil).
func (s *Scenario) RunFleet(cfg scamper.Config, fo FleetOptions) (*fleet.Summary, error) {
	vps := make([]int, len(s.Net.VPs))
	for i := range vps {
		vps[i] = i
	}
	return s.runShards(vps, cfg, fo)
}

// RunAll measures from every VP. It is the one-worker degenerate case of
// the fleet coordinator: every VP runs locally, in VP order, on a fresh
// engine, and the outputs land in Datasets/Results exactly as before.
// RunFleet with more workers produces byte-identical merged output.
func (s *Scenario) RunAll(cfg scamper.Config) {
	if _, err := s.RunFleet(cfg, FleetOptions{Workers: 1}); err != nil {
		// Local-only fleets allocate no listener and validate no order:
		// there is nothing left that can fail.
		panic(fmt.Sprintf("eval: RunAll: %v", err))
	}
}

// RunVP measures and infers from one vantage point: the one-shard subset
// of RunFleet. A memoized result is returned without measuring.
func (s *Scenario) RunVP(i int, cfg scamper.Config, opts core.Options) *core.Result {
	if s.Results[i] == nil {
		if _, err := s.runShards([]int{i}, cfg, FleetOptions{Opts: opts}); err != nil {
			// A local shard allocates no listener and validates no order.
			panic(fmt.Sprintf("eval: RunVP: %v", err))
		}
	}
	return s.Results[i]
}

// RunVPRemote measures VP i over the §5.8 remote-control protocol: a thin
// agent with its own engine dials back to an in-process controller over
// loopback TCP, optionally through a deterministic fault injector
// (faultSpec syntax: internal/faults, e.g. "seed=11,drop=0.12,heal=40").
// Probing is forced to one worker so the command stream — and therefore
// the fault schedule and the inferred links — is deterministic. A lost
// session degrades gracefully: the partial dataset is still inferred and
// Datasets[i].Stats.TargetsLost reports what was abandoned. Only a run
// that salvages nothing — no session ever formed — returns an error. Like
// RunVP, a VP that already has a result is not measured again.
func (s *Scenario) RunVPRemote(i int, cfg scamper.Config, opts core.Options, faultSpec string) (*core.Result, error) {
	sum, err := s.runShards([]int{i}, cfg, FleetOptions{
		Opts: opts,
		VPs:  map[int]FleetVP{i: {Remote: true, FaultSpecs: []string{faultSpec}}},
	})
	if err != nil {
		return nil, err
	}
	if sh := sum.Shards[0]; sh.State == fleet.Failed {
		return nil, sh.Err
	}
	return s.Results[i], nil
}

// runShards measures the listed VPs as one fleet run, shard k being VP
// vps[k]. fo.VPs, States, Prevs and Gate are keyed by VP index; fo.Order
// and the returned summary by shard.
func (s *Scenario) runShards(vps []int, cfg scamper.Config, fo FleetOptions) (*fleet.Summary, error) {
	var rt *fleetRuntime
	for _, i := range vps {
		if fo.VPs[i].Remote {
			ctrl, err := scamper.Listen("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			ctrl.SetObs(s.Obs)
			ctrl.SetHelloTimeout(time.Second)
			rt = &fleetRuntime{ctrl: ctrl, router: scamper.NewRouter(ctrl)}
			defer ctrl.Close()
			break
		}
	}

	shards := make([]fleet.Shard, len(vps))
	for k, i := range vps {
		i := i
		shards[k] = fleet.Shard{
			Name: s.Net.VPs[i].Name,
			Run: func(ctx fleet.RunCtx) (*fleet.Output, error) {
				if s.Results[i] != nil {
					// Memoized by an earlier run: fold the existing
					// result, measure nothing.
					return &fleet.Output{Result: s.Results[i]}, nil
				}
				if fo.Gate != nil {
					fo.Gate(i)
				}
				if fo.VPs[i].Remote {
					return s.fleetShardRemote(i, ctx, cfg, fo, rt)
				}
				cfg := cfg // every shard's closure shares the outer cfg
				if fo.States != nil {
					cfg.State = fo.States[i]
				}
				eng := probe.New(s.Net, s.Tab)
				eng.SetObs(s.Obs)
				return s.runVP(i, ctx, cfg, fo, scamper.LocalProber{E: eng, VP: s.Net.VPs[i]}, nil, nil)
			},
		}
	}

	sum, err := fleet.Run(fleet.Config{
		Workers:          fo.Workers,
		Quorum:           fo.Quorum,
		Retries:          fo.Retries,
		StragglerTimeout: fo.StragglerTimeout,
		Order:            fo.Order,
		Obs:              s.Obs,
		Trace:            s.Trace,
		Spans:            s.Spans,
		SpanParent:       s.SpanRoot.ID(),
		OnPublish:        fo.OnPublish,
	}, shards)
	if err != nil {
		return nil, err
	}
	for k, out := range sum.Outputs {
		if out == nil {
			continue
		}
		i := vps[k]
		if ds, ok := out.Aux.(*scamper.Dataset); ok {
			s.Datasets[i] = ds
		}
		s.Results[i] = out.Result
	}
	return sum, nil
}

// fleetShardRemote runs one attempt of VP i as a remote agent through the
// run's shared controller. A session the fault schedule permanently kills
// returns its partial output *and* an error: the coordinator retries
// within budget — the next attempt's agent redial resumes against the
// shard's surviving RoundState — or keeps the salvage and marks the shard
// degraded. An agent that exits before any session forms fails the
// attempt with no output.
func (s *Scenario) fleetShardRemote(i int, ctx fleet.RunCtx, cfg scamper.Config, fo FleetOptions, rt *fleetRuntime) (*fleet.Output, error) {
	specs := fo.VPs[i].FaultSpecs
	specStr := ""
	if len(specs) > 0 {
		k := ctx.Attempt
		if k >= len(specs) {
			k = len(specs) - 1
		}
		specStr = specs[k]
	}
	spec, err := faults.Parse(specStr)
	if err != nil {
		return nil, err
	}
	inj := faults.New(spec)

	eng := probe.New(s.Net, s.Tab)
	eng.SetObs(s.Obs)
	eng.SetFaults(inj)
	// The agent keeps its own small span log (one span per protocol
	// session); the tail pulls and grafts it under the vp span after the
	// run, so redials and resumes are visible in the timeline.
	var agentSpans *obs.SpanLog
	if s.Spans.Enabled() {
		agentSpans = obs.NewSpanLog(256)
	}
	agent := &scamper.Agent{E: eng, VP: s.Net.VPs[i], Spans: agentSpans}
	agentExit := make(chan struct{})
	go func() {
		defer close(agentExit)
		// A clean bye returns nil; a killed agent reports its redial
		// exhaustion. Either way the dataset is what counts.
		_ = agent.DialRetry(rt.ctrl.Addr(), scamper.DialOptions{
			Dial:         inj.DialFunc,
			MaxRedials:   100,
			RedialBase:   time.Millisecond,
			RedialMax:    16 * time.Millisecond,
			HelloTimeout: 250 * time.Millisecond,
		})
	}()

	rp, err := rt.router.Claim(s.Net.VPs[i].Name, claimTimeout, agentExit)
	if err != nil {
		waitAgent(agentExit)
		return nil, fmt.Errorf("eval: fleet shard %s attempt %d: %w", s.Net.VPs[i].Name, ctx.Attempt, err)
	}
	// Loopback scale: frame processing is sub-millisecond (the engine is
	// simulated), so timeouts far below the WAN defaults keep chaos runs
	// fast while still dwarfing any injected stall.
	rp.SetHardening(scamper.Hardening{
		FrameTimeout: 100 * time.Millisecond,
		RetryBudget:  12,
		BackoffBase:  time.Millisecond,
		BackoffMax:   16 * time.Millisecond,
		ResumeWait:   2 * time.Second,
	})

	// Single-worker probing keeps the command stream — and therefore the
	// fault schedule — deterministic. Cross-round state needs the path
	// signatures only a signing agent provides.
	cfg.Workers = 1
	var prober scamper.Prober = rp
	if fo.States != nil && fo.States[i] != nil {
		if sp := rp.Signed(); sp != nil {
			cfg.State = fo.States[i]
			prober = sp
		}
	}
	return s.runVP(i, ctx, cfg, fo, prober, rp, agentExit)
}

// waitAgent waits, boundedly, for a remote agent goroutine to exit.
func waitAgent(agentExit <-chan struct{}) {
	select {
	case <-agentExit:
	case <-time.After(10 * time.Second):
	}
}

// runVP is the tail every VP attempt shares: drive the prober, settle a
// remote session (rp non-nil: graft the agent's spans, close, wait for
// the agent), then infer into the worker's arena with the shard's
// previous-round result spliced in when provided. A remote session that
// was lost, or lost targets, returns its partial output and an error.
func (s *Scenario) runVP(i int, ctx fleet.RunCtx, cfg scamper.Config, fo FleetOptions,
	prober scamper.Prober, rp *scamper.RemoteProber, agentExit <-chan struct{}) (*fleet.Output, error) {
	// Private trace and span fragments, enabled like the shared logs the
	// coordinator merges them into.
	var frag *obs.Tracer
	var sfrag *obs.SpanLog
	if s.Trace.Enabled() {
		frag = obs.NewTracer(0)
	}
	if s.Spans.Enabled() {
		sfrag = obs.NewSpanLog(0)
	}
	vsp := sfrag.Begin(0, "vp", s.Net.VPs[i].Name)
	if rp == nil {
		vsp.SetAttr("mode", "fleet")
	} else {
		vsp.SetAttr("mode", "fleet-remote")
		vsp.SetAttr("attempt", ctx.Attempt)
	}
	d := &scamper.Driver{
		View:       s.View,
		Prober:     prober,
		HostASNs:   s.HostASNs,
		Cfg:        cfg,
		Obs:        s.Obs,
		Trace:      frag,
		Spans:      sfrag,
		SpanParent: vsp.ID(),
	}
	ds := d.Run()
	var sessErr error
	if rp != nil {
		// Best-effort: a session the fault schedule killed for good has
		// nothing to pull, and that must not fail a degraded-but-useful run.
		if sfrag.Enabled() {
			if recs, err := rp.PullSpans(); err == nil {
				sfrag.MergeRecords(recs, vsp.ID())
			}
		}
		sessErr = rp.Err()
		rp.Close()
		waitAgent(agentExit)
		if sessErr == nil && ds.Stats.TargetsLost > 0 {
			sessErr = fmt.Errorf("%d targets lost", ds.Stats.TargetsLost)
		}
	}

	var prev *core.Result
	if fo.Prevs != nil {
		prev = fo.Prevs[i]
	}
	res := core.Infer(core.Input{
		Data: ds, View: s.View, Rel: s.Rel, RIR: s.RIR, IXP: s.IXP,
		HostASN: s.Net.HostASN, Siblings: s.Sibs, Opts: fo.Opts,
		Obs: s.Obs, Trace: frag, Spans: sfrag, SpanParent: vsp.ID(),
		Prev: prev, Arena: ctx.Arena,
	})
	vsp.End()
	out := &fleet.Output{Result: res, Trace: frag, Spans: sfrag, Aux: ds}
	if rp == nil {
		s.Obs.Inc("eval.vp_runs")
		return out, nil
	}
	s.Obs.Inc("eval.vp_runs_remote")
	if sessErr != nil {
		return out, fmt.Errorf("eval: fleet shard %s attempt %d: %w", s.Net.VPs[i].Name, ctx.Attempt, sessErr)
	}
	return out, nil
}
