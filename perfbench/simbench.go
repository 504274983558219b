package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"vmplants/internal/telemetry"
)

// minReps is the fewest repetitions an untraced simulated run makes.
const minReps = 3

// setupSamples is how many set-ups a run times at least; setup_s is
// their median. Builds beyond the repetitions' own are discarded.
const setupSamples = 15

// timeSetup times one build, after a GC so no collection of earlier
// garbage lands inside it.
func timeSetup[T any](build func() (T, error)) (T, float64, error) {
	runtime.GC()
	t0 := time.Now()
	v, err := build()
	return v, wallSince(t0), err
}

// timeSetups times n builds of cfg's deployment.
func timeSetups(cfg simConfig, seed int64, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		_, secs, err := timeSetup(func() (*simDeployment, error) { return buildSim(cfg, seed, nil, nil) })
		if err != nil {
			return nil, err
		}
		out = append(out, secs)
	}
	return out, nil
}

// siteConfig is the paper's site: one shop over 8 plants, 32/64/256 MB
// goldens, free-memory bids, no journal, no publish-back, every user
// distinct, open-loop Poisson arrivals in virtual time.
func siteConfig() simConfig {
	return simConfig{
		cells:         1,
		plantsPerCell: 8,
		sessions: func(seed int64) ([]session, error) {
			return siteSessions(seed, 4000, 10*time.Second, 600*time.Second)
		},
	}
}

// federationConfig is the production shape: three journaled cells of
// 6 plants on one kernel, publish-back on under a per-cell derived
// budget, a bounded Zipf user population, 70% of arrivals at the hot
// cell, and a catalog gossip round every federation default period.
// With an arrival every 4 s held about 3 minutes, the hot cell runs
// near its VM cap, so a few percent of its arrivals overflow to peers,
// while its NFS path stays below saturation: latencies follow service
// times rather than one seed's bursts. The budget holds every derived
// image the population produces, so nothing retires; a budget below
// that makes each gossip round re-import what the last one retired.
func federationConfig() simConfig {
	return simConfig{
		cells:         3,
		plantsPerCell: 6,
		maxVMs:        6,
		publishBack:   true,
		journal:       true,
		budgetMB:      12000,
		gossipEvery:   10 * time.Second,
		sessions: func(seed int64) ([]session, error) {
			return zipfSessions(seed, 2000, 60, 1.1, 3, 0.7, 4*time.Second, 3*time.Minute)
		},
	}
}

// simTally counts what a run's sessions sent and got back.
type simTally struct {
	creates, createFails, destroys, destroyFails int
}

func tally(out []outcome) simTally {
	var t simTally
	for _, o := range out {
		if !o.OK {
			t.createFails++
			continue
		}
		t.creates++
		t.destroys++
		if !o.Destroyed {
			t.destroyFails++
		}
	}
	return t
}

// latencies returns every session's creation latency, misses included.
func latencies(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for i, o := range out {
		xs[i] = o.Latency
	}
	return xs
}

// virtualEndToEnd adds the deterministic end-to-end metrics of one
// simulated run and the run's traffic counts.
func virtualEndToEnd(r *report, out []outcome) error {
	tl := tally(out)
	lat := latencies(out)
	p50, _ := percentile(lat, 0.5)
	p99, ok := tail(lat, 0.99)
	if !ok {
		return fmt.Errorf("%d sessions are too few for a p99", len(lat))
	}
	r.Attempted = len(out) + tl.destroys
	r.Failed = tl.createFails + tl.destroyFails
	r.Phases = append(r.Phases, phase{Name: "open-loop", Sent: len(out), Succeeded: tl.creates, Failed: tl.createFails, Samples: len(lat)})
	r.e2e("create_p50_vs", "vs", p50, len(lat))
	r.e2e("create_p99_vs", "vs", p99, len(lat))
	r.e2e("failed_frac", "ratio", frac(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	return nil
}

// simRep is one untraced build-and-run of a simulated workload.
type simRep struct {
	setupS float64
	cost   hostCost
	out    []outcome
}

func runSimRep(cfg simConfig, seed int64, sessions []session) (simRep, error) {
	sd, secs, err := timeSetup(func() (*simDeployment, error) { return buildSim(cfg, seed, nil, nil) })
	if err != nil {
		return simRep{}, err
	}
	rep := simRep{setupS: secs}
	rep.cost, err = measure(sd, func() (err error) {
		rep.out, _, err = runSim(sd, sessions, cfg.gossipEvery, nil, 0)
		return err
	})
	if err != nil {
		return rep, err
	}
	return rep, auditSim(sd, sessions, rep.out)
}

// hostEndToEnd adds the host-clock end-to-end metrics: the median over
// repetitions of each per-repetition figure.
func hostEndToEnd(r *report, setups []float64, costs []hostCost, creates []int) {
	var rate, cpu, allocs, heap []float64
	for i, c := range costs {
		n := float64(creates[i])
		rate = append(rate, n/c.wallS)
		cpu = append(cpu, 1000*c.cpuS/n)
		allocs = append(allocs, float64(c.allocs)/n)
		heap = append(heap, c.heapLiveMB)
	}
	r.e2e("setup_s", "s", median(setups), len(setups))
	r.e2e("creates_per_s", "1/s", median(rate), len(rate))
	r.e2e("cpu_ms_per_create", "ms", median(cpu), len(cpu))
	r.e2e("allocs_per_create", "count", median(allocs), len(allocs))
	r.e2e("heap_live_mb", "MB", median(heap), len(heap))
}

// runSimWorkload measures a simulated workload. Untraced, it repeats
// build-and-run of one generated schedule until the time budget is
// spent; every repetition must reproduce the first one's outcomes.
// Traced, it runs the schedule once untraced and once traced.
func runSimWorkload(name string, cfg simConfig, o runOpts) (*report, error) {
	sessions, err := cfg.sessions(o.seed)
	if err != nil {
		return nil, err
	}
	if o.traced {
		return traceSim(name, cfg, sessions, o)
	}
	start := time.Now()
	var (
		first   []outcome
		setups  []float64
		costs   []hostCost
		creates []int
	)
	for i := 0; ; i++ {
		rep, err := runSimRep(cfg, o.seed, sessions)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = rep.out
		} else if err := sameOutcomes(first, rep.out, true); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		setups = append(setups, rep.setupS)
		costs = append(costs, rep.cost)
		creates = append(creates, tally(rep.out).creates)
		if i+1 >= minReps && wallSince(start) >= o.seconds {
			break
		}
	}
	if n := setupSamples - len(setups); n > 0 {
		more, err := timeSetups(cfg, o.seed, n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
	}
	r := &report{Workload: name}
	if err := virtualEndToEnd(r, first); err != nil {
		return nil, err
	}
	hostEndToEnd(r, setups, costs, creates)
	return r, nil
}

// tracedCounters are the Hub counters per-layer metrics read as deltas
// over the measured phase.
var tracedCounters = []string{
	"sim.events_dispatched", "shop.forwarded_creates",
	"warehouse.cache_hits", "warehouse.cache_misses", "warehouse.publishes", "warehouse.retirements",
	"journal.appends", "journal.syncs", "journal.bytes", "proto.rpc_retries",
}

func counterValues(hub *telemetry.Hub) map[string]int64 {
	m := make(map[string]int64, len(tracedCounters))
	for _, n := range tracedCounters {
		m[n] = hub.Counter(n).Value()
	}
	return m
}

// tracedRun accumulates what the traced measured phases leave for
// the per-layer metrics.
type tracedRun struct {
	t        *tracer
	hub      *telemetry.Hub
	counts   map[string]float64 // Hub counter deltas
	cpu      map[string]int64   // profiled CPU ns per layer label
	cpuS     float64            // measured process CPU
	gcCPUS   float64
	gcCycles int
	creates  int
	walls    []float64 // wall seconds of each traced phase
	prof     []byte    // the first phase's CPU profile
	spans    []telemetry.Span
}

func newTracedRun() *tracedRun {
	return &tracedRun{
		t:      newTracer(),
		hub:    &telemetry.Hub{Metrics: telemetry.NewRegistry()},
		counts: make(map[string]float64),
		cpu:    make(map[string]int64),
	}
}

// phase runs one traced measured phase under a CPU profile and folds
// its counter deltas, labelled CPU and host cost into tr. keep is the
// deployment, live until its heap has been read.
func (tr *tracedRun) phase(keep any, run func() error) error {
	before := counterValues(tr.hub)
	var prof []byte
	cost, err := measure(keep, func() (err error) {
		prof, err = profiled(run)
		return err
	})
	if err != nil {
		return err
	}
	for _, n := range tracedCounters {
		tr.counts[n] += float64(tr.hub.Counter(n).Value() - before[n])
	}
	layers, err := layerCPU(prof)
	if err != nil {
		return err
	}
	for l, ns := range layers {
		tr.cpu[l] += ns
	}
	tr.cpuS += cost.cpuS
	tr.gcCPUS += cost.gcCPUS
	tr.gcCycles += int(cost.gcCycles)
	tr.walls = append(tr.walls, cost.wallS)
	if tr.prof == nil {
		tr.prof = prof
		tr.spans = tr.t.spanList()
	}
	return nil
}

func (tr *tracedRun) delta(name string) float64 { return tr.counts[name] }

// perCreate divides by the traced phases' successful creations.
func (tr *tracedRun) perCreate(v float64) float64 { return frac(v, float64(tr.creates)) }

// cpuUS is the host CPU microseconds per creation spent under the
// given layer labels: their share of the profile's samples applied to
// the phases' measured process CPU.
func (tr *tracedRun) cpuUS(layers ...string) float64 {
	var share float64
	for _, l := range layers {
		share += tr.cpuFrac(l)
	}
	return tr.perCreate(1e6 * tr.cpuS * share)
}

// cpuFrac is the share of profiled CPU under the given label.
func (tr *tracedRun) cpuFrac(layer string) float64 {
	var total int64
	for _, ns := range tr.cpu {
		total += ns
	}
	return frac(float64(tr.cpu[layer]), float64(total))
}

// profiled runs phase under a CPU profile, returning the profile bytes.
func profiled(phase func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := phase()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// traceSim alternates untraced and traced runs of the schedule until
// the time budget is spent, checks that tracing changed no outcome,
// and derives the per-layer metrics from the traced runs.
func traceSim(name string, cfg simConfig, sessions []session, o runOpts) (*report, error) {
	start := time.Now()
	tr := newTracedRun()
	var (
		first []outcome
		refs  []simRep
		last  *simDeployment
		gs    gossipStats
	)
	for i := 0; ; i++ {
		ref, err := runSimRep(cfg, o.seed, sessions)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = ref.out
		} else if err := sameOutcomes(first, ref.out, true); err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		refs = append(refs, ref)

		sd, err := buildSim(cfg, o.seed, tr.hub, tr.t)
		if err != nil {
			return nil, err
		}
		var out []outcome
		var g gossipStats
		err = tr.phase(sd, func() (err error) {
			out, g, err = runSim(sd, sessions, cfg.gossipEvery, tr.t, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := auditSim(sd, sessions, out); err != nil {
			return nil, err
		}
		if err := sameOutcomes(first, out, true); err != nil {
			return nil, fmt.Errorf("traced run diverged: %w", err)
		}
		tr.creates += tally(out).creates
		gs.rounds += g.rounds
		gs.offered += g.offered
		gs.imported += g.imported
		last = sd
		if wallSince(start) >= o.seconds {
			break
		}
	}
	r := &report{Workload: name}
	if err := virtualEndToEnd(r, first); err != nil {
		return nil, err
	}
	var setups, untimed []float64
	var costs []hostCost
	var creates []int
	for _, ref := range refs {
		setups = append(setups, ref.setupS)
		costs = append(costs, ref.cost)
		creates = append(creates, tally(ref.out).creates)
		untimed = append(untimed, ref.cost.wallS)
	}
	hostEndToEnd(r, setups, costs, creates)
	simLayers(r, tr)
	r.layer("shop.forwarded_frac", "ratio", tr.perCreate(tr.delta("shop.forwarded_creates")), tr.creates)
	var derived float64
	for _, c := range last.cells {
		derived += float64(c.d.Warehouse.DerivedCount())
	}
	r.layer("warehouse.derived_images", "count", derived/float64(len(last.cells)), len(last.cells))
	r.layer("federation.gossip_rounds", "count", float64(gs.rounds), gs.rounds)
	r.layer("federation.gossip_cpu_us_per_create", "us", tr.cpuUS("federation.gossip"), tr.creates)
	gw := tr.t.op("federation.gossip").wall
	r.layer("federation.gossip_ms_per_round", "ms", 1000*mean(gw), len(gw))
	r.layer("federation.gossip_useful_frac", "ratio", frac(float64(gs.imported), float64(gs.offered)), gs.offered)
	noDaemonLayers(r)
	r.layer("bench.gen_late_p99_ms", "ms", 0, 0)
	r.layer("bench.trace_overhead_frac", "ratio", median(tr.walls)/median(untimed)-1, len(tr.walls))
	return r, writeArtifacts(o, name, tr.spans, tr.prof)
}

// simLayers adds the per-layer metrics every workload with an
// in-kernel shop shares.
func simLayers(r *report, tr *tracedRun) {
	t := tr.t
	n := tr.creates
	r.layer("sim.events_per_create", "count", tr.perCreate(tr.delta("sim.events_dispatched")), n)
	r.layer("sim.cpu_us_per_create", "us", tr.cpuUS("sim"), n)
	r.layer("shop.cpu_us_per_create", "us", tr.cpuUS("shop"), n)
	est, crt, col := t.op("plant.estimate"), t.op("plant.create"), t.op("plant.collect")
	r.layer("shop.bid_useful_frac", "ratio", frac(float64(crt.calls), float64(est.calls)), est.calls)
	r.layer("shop.admission_wait_p99_vs", "vs", histP99(tr.hub, "shop.admission_wait_secs"), int(tr.hub.Histogram("shop.admission_wait_secs").Count()))
	r.layer("plant.estimate_cpu_us_per_create", "us", tr.cpuUS("plant.estimate"), n)
	r.layer("plant.create_cpu_us_per_create", "us", tr.cpuUS("plant.create"), n)
	r.layer("plant.estimate_calls", "count", float64(est.calls), est.calls)
	r.layer("plant.create_calls", "count", float64(crt.calls), crt.calls)
	r.layer("plant.collect_calls", "count", float64(col.calls), col.calls)
	var errs int
	for name, st := range t.opsSnapshot() {
		if strings.HasPrefix(name, "plant.") {
			errs += st.errs
		}
	}
	r.layer("plant.errors", "count", float64(errs), est.calls+crt.calls+col.calls)
	p50, _ := percentile(crt.virt, 0.5)
	p99, _ := percentile(crt.virt, 0.99)
	r.layer("plant.create_p50_vs", "vs", p50, len(crt.virt))
	r.layer("plant.create_p99_vs", "vs", p99, len(crt.virt))
	t.mu.Lock()
	clones, warm := append([]float64(nil), t.clones...), t.warm
	t.mu.Unlock()
	r.layer("plant.clone_p50_vs", "vs", median(clones), len(clones))
	r.layer("plant.warm_match_frac", "ratio", frac(float64(warm), float64(len(clones))), len(clones))
	r.layer("plant.admission_wait_p99_vs", "vs", histP99(tr.hub, "plant.admission_wait_secs"), int(tr.hub.Histogram("plant.admission_wait_secs").Count()))
	hits, misses := tr.delta("warehouse.cache_hits"), tr.delta("warehouse.cache_misses")
	r.layer("warehouse.cache_hit_frac", "ratio", frac(hits, hits+misses), int(hits+misses))
	r.layer("warehouse.publishes_per_create", "count", tr.perCreate(tr.delta("warehouse.publishes")), n)
	r.layer("warehouse.retirements", "count", tr.delta("warehouse.retirements"), n)
	r.layer("journal.appends_per_create", "count", tr.perCreate(tr.delta("journal.appends")), n)
	r.layer("journal.syncs_per_create", "count", tr.perCreate(tr.delta("journal.syncs")), n)
	r.layer("journal.bytes_per_create", "B", tr.perCreate(tr.delta("journal.bytes")), n)
	r.layer("go.gc_cpu_frac", "ratio", frac(tr.gcCPUS, tr.cpuS), tr.gcCycles)
	r.layer("go.gc_cycles_per_1k_creates", "count", 1000*tr.perCreate(float64(tr.gcCycles)), n)
	r.layer("go.unattributed_cpu_frac", "ratio", tr.cpuFrac(""), n)
}

// noDaemonLayers reports the TCP layers a simulated workload bypasses.
func noDaemonLayers(r *report) {
	for _, m := range []struct{ name, unit string }{
		{"proto.dials_per_create", "count"}, {"proto.bytes_per_create", "B"},
		{"proto.shop_plant_rpc_p50_ms", "ms"}, {"proto.plantd_handler_p50_ms", "ms"},
		{"proto.envelope_us_per_rpc", "us"}, {"proto.rpc_retries", "count"},
		{"service.shopd_handler_p50_ms", "ms"}, {"service.shopd_handler_p99_ms", "ms"},
	} {
		r.layer(m.name, m.unit, 0, 0)
	}
}

// histP99 is a Hub histogram's p99 (0 when it saw nothing).
func histP99(hub *telemetry.Hub, name string) float64 {
	h := hub.Histogram(name)
	if h.Count() == 0 {
		return 0
	}
	return h.Quantile(0.99)
}
