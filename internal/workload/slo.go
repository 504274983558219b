package workload

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
)

// The SLO experiment is the observability stack's own CI gate: a mixed
// warm/chaos burst whose every creation must yield exactly one rooted
// span tree crossing all three layers (shop, plant, clone/verify), a
// complete flight-recorder timeline, and SLOs that hold under the
// injected faults — all byte-identically reproducible per seed.

// SLOOptions tunes RunSLO.
type SLOOptions struct {
	Plants int // default 4
	// WarmBatch is the clean batched burst (default 16 requests).
	WarmBatch int
	// ChaosRequests are serial creations issued after the fault mix is
	// switched on (default 16).
	ChaosRequests int
	MemoryMB      int           // default 64
	BidTimeout    time.Duration // default 1 s virtual
	// Mix is the chaos-phase fault cocktail; only RPCDrop, SlowBid and
	// CloneIO are used — never PlantCrash, so every creation resolves
	// inside one Shop.Create via failover and the span-tree invariant
	// has no legitimate exception.
	Mix *ChaosMix
	// ClientRetries bounds re-submission of a request the shop failed
	// outright (default 4).
	ClientRetries int
}

func (o SLOOptions) withDefaults() SLOOptions {
	if o.Plants == 0 {
		o.Plants = 4
	}
	if o.WarmBatch == 0 {
		o.WarmBatch = 16
	}
	if o.ChaosRequests == 0 {
		o.ChaosRequests = 16
	}
	if o.MemoryMB == 0 {
		o.MemoryMB = 64
	}
	if o.BidTimeout == 0 {
		o.BidTimeout = time.Second
	}
	if o.Mix == nil {
		o.Mix = &ChaosMix{
			RPCDrop:      0.08,
			SlowBidProb:  0.08,
			SlowBidDelay: 3 * time.Second,
			CloneIO:      0.08,
		}
	}
	if o.ClientRetries == 0 {
		o.ClientRetries = 4
	}
	return o
}

// DefaultSLOObjectives declares the stack's standing objectives. The
// bounds are generous against the calibrated testbed on purpose: the
// gate is "the pipeline did not regress into pathology", not a tuning
// knob. Daemons install the same set.
func DefaultSLOObjectives() []telemetry.Objective {
	return []telemetry.Objective{
		{Name: "create.p99", Hist: "shop.create_secs", Quantile: 0.99, MaxSeconds: 300},
		{Name: "clone.p99", Hist: "plant.clone_secs", Quantile: 0.99, MaxSeconds: 120},
		{Name: "create.success", Good: "shop.creations", Bad: "shop.create_failures", MinRatio: 0.9},
	}
}

// SLOResult is one RunSLO outcome.
type SLOResult struct {
	Requests  int
	Succeeded int

	// Span-tree audit over every trace the run produced.
	Traces        int
	SpanCount     int
	OrphanSpans   int // spans whose parent is missing from their trace
	ExtraRoots    int // traces with more than one root span
	Incomplete    int // successful creations missing a layer's spans
	BadFlights    int // successful creations with an incomplete event timeline
	TracerDropped uint64
	FlightDropped uint64

	Objectives []telemetry.ObjectiveStatus
	SLOsHold   bool

	Injections map[string]int64
	CreateSecs stats.Summary

	// Spans is the full span set, for Chrome trace export.
	Spans []telemetry.Span

	// Fingerprint digests every virtual-time observable; same-seed runs
	// must produce identical fingerprints.
	Fingerprint string
}

// TreeOK reports the span-tree invariant: complete rings, zero orphans,
// one root per trace, all layers present for every success.
func (r *SLOResult) TreeOK() bool {
	return r.TracerDropped == 0 && r.FlightDropped == 0 &&
		r.OrphanSpans == 0 && r.ExtraRoots == 0 && r.Incomplete == 0 && r.BadFlights == 0
}

// GateViolations lists every acceptance-gate failure (empty = pass):
// every creation succeeded with one complete span tree and flight
// timeline, every standing objective was evaluated and held, and the
// chaos phase injected faults.
func (r *SLOResult) GateViolations() []string {
	var v violations
	v.check(r.Succeeded == r.Requests, "succeeded %d of %d requests", r.Succeeded, r.Requests)
	v.check(r.TreeOK(), "span-tree invariant violated: orphans=%d extra_roots=%d incomplete=%d bad_flights=%d dropped=%d/%d",
		r.OrphanSpans, r.ExtraRoots, r.Incomplete, r.BadFlights, r.TracerDropped, r.FlightDropped)
	v.check(r.SLOsHold, "SLOs violated")
	for _, st := range r.Objectives {
		v.check(st.OK, "objective %s violated: value=%v bound=%v", st.Name, st.Value, st.Bound)
	}
	v.check(len(r.Objectives) == len(DefaultSLOObjectives()),
		"%d objective statuses, want %d", len(r.Objectives), len(DefaultSLOObjectives()))
	var injected int64
	for _, n := range r.Injections {
		injected += n
	}
	v.check(injected > 0, "chaos phase injected no faults")
	return v
}

// requiredFlightKinds is the lifecycle every successful creation must
// have recorded.
var requiredFlightKinds = []string{
	telemetry.EvSubmitted, telemetry.EvBidWon, telemetry.EvAdmitted,
	telemetry.EvCloneStart, telemetry.EvCloneDone, telemetry.EvCreated,
}

// RunSLO drives the mixed warm/chaos burst and audits traces, flight
// timelines and objectives.
func RunSLO(seed int64, opts SLOOptions) (*SLOResult, error) {
	opts = opts.withDefaults()
	hub := telemetry.New()
	// The audit needs the complete span set: size the ring far above
	// what the burst can produce so nothing is evicted.
	hub.Tracer = telemetry.NewTracer(1 << 16)

	// The fault registry starts empty — the warm phase runs clean — and
	// gets the chaos mix's rules between phases.
	reg := fault.NewRegistry(seed + 104729)
	reg.SetTelemetry(hub)

	d, err := NewDeployment(Options{
		Plants:        opts.Plants,
		Seed:          seed,
		GoldenSizesMB: []int{opts.MemoryMB},
		Telemetry:     hub,
		PlantConfig:   plant.Config{Faults: reg},
	})
	if err != nil {
		return nil, err
	}
	d.Shop.BidTimeout = opts.BidTimeout
	for _, h := range d.Handles {
		h.Faults = reg
	}
	// Fresh-run guarantee: snapshots and SLO evaluations must never mix
	// samples from an earlier experiment sharing this registry.
	hub.M().ResetHistograms()
	hub.SLO = telemetry.NewSLOEngine(hub.M(), DefaultSLOObjectives()...)

	res := &SLOResult{Requests: opts.WarmBatch + opts.ChaosRequests}
	var lines []string // fingerprint material
	var createdIDs []core.VMID
	var secs []float64

	// Phase 1 — warm burst: a clean batch through the creation pipeline.
	specs := make([]*core.Spec, opts.WarmBatch)
	for i := range specs {
		specs[i], err = d.WorkspaceSpec(i+1, opts.MemoryMB)
		if err != nil {
			return nil, err
		}
	}
	err = d.Run(func(p *sim.Proc) {
		for i, r := range d.Shop.CreateMany(p, specs) {
			if r.Err != nil {
				lines = append(lines, fmt.Sprintf("warm %d FAILED %v", i+1, r.Err))
				continue
			}
			res.Succeeded++
			createdIDs = append(createdIDs, r.VMID)
			lines = append(lines, fmt.Sprintf("warm %d ok %s", i+1, r.VMID))
		}
	})
	if err != nil {
		return nil, err
	}

	// Phase 2 — chaos burst: transport and clone faults on, serial
	// creations. Every fault resolves inside one Shop.Create (failover,
	// re-bid), so each request still yields exactly one trace.
	mix := *opts.Mix
	reg.SetProb(fault.Wildcard, fault.RPCDrop, "", mix.RPCDrop)
	if mix.SlowBidProb > 0 {
		reg.SetProb(fault.Wildcard, fault.SlowBid, "", mix.SlowBidProb)
		reg.SetDelay(fault.Wildcard, fault.SlowBid, "", mix.SlowBidDelay)
	}
	reg.SetProb(fault.Wildcard, fault.CloneIO, "", mix.CloneIO)

	var runErr error
	err = d.Run(func(p *sim.Proc) {
		for i := 1; i <= opts.ChaosRequests; i++ {
			spec, err := d.WorkspaceSpec(opts.WarmBatch+i, opts.MemoryMB)
			if err != nil {
				runErr = err
				return
			}
			start := p.Now()
			var id core.VMID
			for try := 0; ; try++ {
				var cerr error
				id, _, cerr = d.Shop.Create(p, spec)
				if cerr == nil {
					break
				}
				if try >= opts.ClientRetries {
					lines = append(lines, fmt.Sprintf("chaos %d FAILED %v", i, cerr))
					id = ""
					break
				}
				p.Sleep(2 * time.Second)
			}
			if id == "" {
				continue
			}
			res.Succeeded++
			createdIDs = append(createdIDs, id)
			secs = append(secs, (p.Now() - start).Seconds())
			lines = append(lines, fmt.Sprintf("chaos %d ok %s route=%s", i, id, d.Shop.RouteOf(id)))
		}
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	res.CreateSecs = stats.Summarize(secs)

	// Audit 1 — span trees. Group every finished span by trace; each
	// group must have exactly one root and no span may reference a
	// parent outside its group.
	res.Spans = hub.T().Spans()
	res.SpanCount = len(res.Spans)
	res.TracerDropped = hub.T().Dropped()
	res.FlightDropped = hub.F().Dropped()
	byTrace := make(map[uint64][]telemetry.Span)
	for _, s := range res.Spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	res.Traces = len(byTrace)
	traceIDs := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		traceIDs = append(traceIDs, id)
	}
	sort.Slice(traceIDs, func(i, j int) bool { return traceIDs[i] < traceIDs[j] })
	for _, tid := range traceIDs {
		group := byTrace[tid]
		ids := make(map[uint64]bool, len(group))
		for _, s := range group {
			ids[s.ID] = true
		}
		roots, orphans := 0, 0
		names := make([]string, 0, len(group))
		for _, s := range group {
			names = append(names, s.Name)
			if s.Parent == 0 {
				roots++
			} else if !ids[s.Parent] {
				orphans++
			}
		}
		if roots > 1 {
			res.ExtraRoots++
		}
		res.OrphanSpans += orphans
		sort.Strings(names)
		lines = append(lines, fmt.Sprintf("trace %d roots=%d orphans=%d spans=[%s]",
			tid, roots, orphans, strings.Join(names, ",")))
	}

	// Audit 2 — layer coverage and flight timelines, per successful
	// creation: the trace must cross shop → plant → clone, and the
	// flight recorder must hold the full lifecycle starting at
	// submission.
	rootOf := make(map[string]uint64) // vmid → trace
	for _, s := range res.Spans {
		if s.Name == "shop.create" {
			rootOf[s.Attr("vmid")] = s.TraceID
		}
	}
	for _, id := range createdIDs {
		have := make(map[string]bool)
		for _, s := range byTrace[rootOf[string(id)]] {
			have[s.Name] = true
		}
		if !have["shop.create"] || !have["plant.create"] || !have["clone"] {
			res.Incomplete++
			lines = append(lines, fmt.Sprintf("incomplete trace for %s", id))
		}
		evs := hub.F().Events(string(id))
		kinds := make(map[string]bool, len(evs))
		var evLine []string
		for _, ev := range evs {
			kinds[ev.Kind] = true
			evLine = append(evLine, fmt.Sprintf("%s@%s", ev.Kind, ev.V))
		}
		ok := len(evs) > 0 && evs[0].Kind == telemetry.EvSubmitted
		for _, k := range requiredFlightKinds {
			ok = ok && kinds[k]
		}
		if !ok {
			res.BadFlights++
		}
		lines = append(lines, fmt.Sprintf("flight %s %s", id, strings.Join(evLine, " ")))
	}

	// Audit 3 — objectives, evaluated at the end of virtual time.
	res.Objectives = hub.SLO.Evaluate(d.Kernel.Now())
	res.SLOsHold = true
	for _, st := range res.Objectives {
		res.SLOsHold = res.SLOsHold && st.OK
		lines = append(lines, fmt.Sprintf("slo %s ok=%v value=%.6g bound=%g samples=%d burn=%.6g",
			st.Name, st.OK, st.Value, st.Bound, st.Samples, st.Burn))
	}

	res.Injections = reg.Counts()
	lines = append(lines, reg.Summary()...)
	lines = append(lines, fmt.Sprintf("traces=%d spans=%d orphans=%d extra_roots=%d incomplete=%d bad_flights=%d dropped=%d/%d end=%s",
		res.Traces, res.SpanCount, res.OrphanSpans, res.ExtraRoots, res.Incomplete,
		res.BadFlights, res.TracerDropped, res.FlightDropped, d.Kernel.Now()))
	res.Fingerprint = strings.Join(lines, "\n")
	return res, nil
}

// Report renders the run as printable lines.
func (r *SLOResult) Report() []string {
	out := []string{
		fmt.Sprintf("requests:          %d", r.Requests),
		fmt.Sprintf("succeeded:         %d (%.0f%%)", r.Succeeded, 100*float64(r.Succeeded)/float64(r.Requests)),
		fmt.Sprintf("traces:            %d (%d spans)", r.Traces, r.SpanCount),
		fmt.Sprintf("orphan spans:      %d", r.OrphanSpans),
		fmt.Sprintf("multi-root traces: %d", r.ExtraRoots),
		fmt.Sprintf("incomplete traces: %d", r.Incomplete),
		fmt.Sprintf("bad flight logs:   %d", r.BadFlights),
		fmt.Sprintf("ring drops:        spans=%d events=%d", r.TracerDropped, r.FlightDropped),
		fmt.Sprintf("chaos create secs: %s", r.CreateSecs),
	}
	for _, st := range r.Objectives {
		out = append(out, fmt.Sprintf("slo %-16s ok=%-5v value=%.4g bound=%g burn=%.3g (n=%d)",
			st.Name, st.OK, st.Value, st.Bound, st.Burn, st.Samples))
	}
	return append(out, injectionLines(r.Injections)...)
}
