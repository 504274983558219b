package workload

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
)

// ChaosMix is the fault cocktail a chaos run injects, as wildcard rules
// over every plant. Action failures are deliberately absent from the
// default mix: a DAG action exhausting its error policy is the
// request's outcome on every plant, so it is not a fault the shop can
// route around.
type ChaosMix struct {
	// RPCDrop is the probability any shop→plant message is lost.
	RPCDrop float64
	// RPCDelayProb stalls a message by RPCDelay without losing it.
	RPCDelayProb float64
	RPCDelay     time.Duration
	// SlowBidProb stalls a plant's estimate by SlowBidDelay — past the
	// shop's bid timeout, so the round proceeds without it.
	SlowBidProb  float64
	SlowBidDelay time.Duration
	// CloneIO fails a clone's state copy, destroying the partial clone.
	CloneIO float64
	// CrashInCreate crashes the winning plant mid-creation.
	CrashInCreate float64
}

// DefaultChaosMix is the standard cocktail: every fault class at a rate
// high enough that a run of a few dozen requests hits each of them.
func DefaultChaosMix() ChaosMix {
	return ChaosMix{
		RPCDrop:       0.05,
		RPCDelayProb:  0.05,
		RPCDelay:      300 * time.Millisecond,
		SlowBidProb:   0.08,
		SlowBidDelay:  3 * time.Second,
		CloneIO:       0.05,
		CrashInCreate: 0.04,
	}
}

// ChaosOptions configures a chaos run.
type ChaosOptions struct {
	Plants   int // default 8
	Requests int // default 32
	MemoryMB int // default 64
	Mix      *ChaosMix
	// BidTimeout bounds each bidding round (default 1 s virtual).
	BidTimeout time.Duration
	// Breaker is the shop's circuit-breaker config (default threshold 3,
	// cooldown 20 s virtual).
	Breaker *shop.BreakerConfig
	// RestartAfter is the supervisor's crash→restart delay
	// (default 10 s virtual).
	RestartAfter time.Duration
	// ClientRetries bounds how often the client re-submits a request the
	// shop failed transiently (default 8).
	ClientRetries int
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Plants == 0 {
		o.Plants = 8
	}
	if o.Requests == 0 {
		o.Requests = 32
	}
	if o.MemoryMB == 0 {
		o.MemoryMB = 64
	}
	if o.Mix == nil {
		m := DefaultChaosMix()
		o.Mix = &m
	}
	if o.BidTimeout == 0 {
		o.BidTimeout = time.Second
	}
	if o.Breaker == nil {
		o.Breaker = &shop.BreakerConfig{Threshold: 3, Cooldown: 20 * time.Second}
	}
	if o.RestartAfter == 0 {
		o.RestartAfter = 10 * time.Second
	}
	if o.ClientRetries == 0 {
		o.ClientRetries = 8
	}
	return o
}

// ChaosResult reports what a chaos run survived.
type ChaosResult struct {
	Requests      int
	Succeeded     int
	ClientRetries int // request re-submissions after shop-level failure
	Failovers     int64
	DegradedBids  int64
	BreakerOpens  int64
	PlantCrashes  int64
	Recoveries    int64
	RoutesRecov   int // routes shop.Recover re-learned at the end
	Injections    map[string]int64
	CreateSecs    stats.Summary
	OrphanVMs     int // VMs left on plants after every destroy
	LeakedNets    int // host-only network slots never released
	// Fingerprint digests every per-request outcome and injection
	// count; two runs with the same seed must produce identical
	// fingerprints.
	Fingerprint string
}

// RunChaos drives a creation series through a deployment under fault
// injection and verifies the system absorbed every fault: all requests
// eventually succeed (shop-side failover plus bounded client retry),
// recovery rebuilds routing after the shop forgets it, and destroying
// everything leaves zero orphaned VMs and zero leaked host-only
// networks.
func RunChaos(seed int64, opts ChaosOptions) (*ChaosResult, error) {
	opts = opts.withDefaults()
	hub := telemetry.New()

	// One registry for the whole site, with wildcard rules: which plant
	// a fault hits is decided by the deterministic order injection
	// points consult the shared stream.
	reg := fault.NewRegistry(seed + 7919)
	reg.SetTelemetry(hub)
	mix := *opts.Mix
	reg.SetProb(fault.Wildcard, fault.RPCDrop, "", mix.RPCDrop)
	if mix.RPCDelayProb > 0 {
		reg.SetProb(fault.Wildcard, fault.RPCDelay, "", mix.RPCDelayProb)
		reg.SetDelay(fault.Wildcard, fault.RPCDelay, "", mix.RPCDelay)
	}
	if mix.SlowBidProb > 0 {
		reg.SetProb(fault.Wildcard, fault.SlowBid, "", mix.SlowBidProb)
		reg.SetDelay(fault.Wildcard, fault.SlowBid, "", mix.SlowBidDelay)
	}
	reg.SetProb(fault.Wildcard, fault.CloneIO, "", mix.CloneIO)
	reg.SetProb(fault.Wildcard, fault.PlantCrash, "create", mix.CrashInCreate)

	d, err := NewDeployment(Options{
		Plants:      opts.Plants,
		Seed:        seed,
		Telemetry:   hub,
		PlantConfig: plant.Config{Faults: reg},
	})
	if err != nil {
		return nil, err
	}
	d.Shop.BidTimeout = opts.BidTimeout
	d.Shop.Breaker = *opts.Breaker
	for _, h := range d.Handles {
		h.Faults = reg
		h.RestartAfter = opts.RestartAfter
	}

	res := &ChaosResult{Requests: opts.Requests}
	var lines []string // fingerprint material
	var created []core.VMID
	var runErr error
	err = d.Run(func(p *sim.Proc) {
		var secs []float64
		for i := 1; i <= opts.Requests; i++ {
			spec, err := d.WorkspaceSpec(i, opts.MemoryMB)
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
					lines = append(lines, fmt.Sprintf("req %d FAILED %v", i, cerr))
					id = ""
					break
				}
				// Transient wipeout (every bidder down at once): back
				// off and re-submit; supervisors restart crashed
				// daemons meanwhile.
				res.ClientRetries++
				p.Sleep(5 * time.Second)
			}
			if id == "" {
				continue
			}
			elapsed := (p.Now() - start).Seconds()
			secs = append(secs, elapsed)
			created = append(created, id)
			res.Succeeded++
			lines = append(lines, fmt.Sprintf("req %d ok %s route=%s %.6fs", i, id, d.Shop.RouteOf(id), elapsed))
		}
		res.CreateSecs = stats.Summarize(secs)

		// Shop restart: soft routing state gone; Recover re-learns it
		// from plant inventories (restarting any still-crashed plant
		// daemon first, as an operator would).
		for _, pl := range d.Plants {
			pl.Recover(p)
		}
		d.Shop.ForgetRoutes()
		routes, unreachable := d.Shop.Recover(p)
		res.RoutesRecov = routes
		lines = append(lines, fmt.Sprintf("recover routes=%d unreachable=%d", routes, len(unreachable)))

		// Drain the site through the recovered routes; every VM must be
		// reachable and collectable. Destroys ride the same fault mix —
		// a dropped collect times out before reaching the plant and the
		// shop keeps the route, so re-asking is safe.
		for _, id := range created {
			var derr error
			for try := 0; try <= opts.ClientRetries; try++ {
				if derr = d.Shop.Destroy(p, id); derr == nil {
					break
				}
				res.ClientRetries++
				p.Sleep(2 * time.Second)
			}
			if derr != nil {
				lines = append(lines, fmt.Sprintf("destroy %s FAILED %v", id, derr))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}

	// Zero-orphan, zero-leak audit.
	for _, pl := range d.Plants {
		res.OrphanVMs += pl.ActiveVMs()
		nets := pl.Networks()
		res.LeakedNets += nets.Size() - nets.FreeCount()
	}

	res.Failovers = hub.Counter("shop.failovers").Value()
	res.DegradedBids = hub.Counter("shop.degraded_bid_rounds").Value()
	res.BreakerOpens = hub.Counter("shop.breaker_opens").Value()
	res.PlantCrashes = hub.Counter("plant.crashes").Value()
	res.Recoveries = hub.Counter("plant.recoveries").Value()
	res.Injections = reg.Counts()

	lines = append(lines, reg.Summary()...)
	lines = append(lines, fmt.Sprintf("failovers=%d degraded=%d breaker_opens=%d crashes=%d recoveries=%d orphans=%d leaks=%d",
		res.Failovers, res.DegradedBids, res.BreakerOpens, res.PlantCrashes, res.Recoveries, res.OrphanVMs, res.LeakedNets))
	res.Fingerprint = strings.Join(lines, "\n")
	return res, nil
}

// GateViolations lists every acceptance-gate failure (empty = pass):
// every request succeeded, recovery re-learned every route, the drain
// left nothing behind, and the mix actually injected faults.
func (r *ChaosResult) GateViolations() []string {
	var v violations
	v.check(r.Succeeded == r.Requests, "succeeded %d of %d requests", r.Succeeded, r.Requests)
	v.check(r.OrphanVMs == 0, "%d orphaned VMs after drain", r.OrphanVMs)
	v.check(r.LeakedNets == 0, "%d leaked host-only networks after drain", r.LeakedNets)
	v.check(r.RoutesRecov == r.Requests, "shop.Recover rebuilt %d routes, want %d", r.RoutesRecov, r.Requests)
	injected := r.InjectionTotal(fault.RPCDrop) + r.InjectionTotal(fault.CloneIO) +
		r.InjectionTotal(fault.PlantCrash) + r.InjectionTotal(fault.SlowBid)
	v.check(injected > 0, "no faults injected; chaos run exercised nothing")
	return v
}

// injectionLines renders fault-injection counts as report lines,
// sorted by "site/kind[/op]" label.
func injectionLines(counts map[string]int64) []string {
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = fmt.Sprintf("injected %-28s %d", l, counts[l])
	}
	return out
}

// InjectionTotal sums injections across all sites for one fault kind.
func (r *ChaosResult) InjectionTotal(kind fault.Kind) int64 {
	var n int64
	for label, c := range r.Injections {
		parts := strings.SplitN(label, "/", 3)
		if len(parts) >= 2 && parts[1] == string(kind) {
			n += c
		}
	}
	return n
}

// Report renders the run as printable lines.
func (r *ChaosResult) Report() []string {
	out := []string{
		fmt.Sprintf("requests:            %d", r.Requests),
		fmt.Sprintf("succeeded:           %d (%.0f%%)", r.Succeeded, 100*float64(r.Succeeded)/float64(r.Requests)),
		fmt.Sprintf("client retries:      %d", r.ClientRetries),
		fmt.Sprintf("shop failovers:      %d", r.Failovers),
		fmt.Sprintf("degraded bid rounds: %d", r.DegradedBids),
		fmt.Sprintf("breaker opens:       %d", r.BreakerOpens),
		fmt.Sprintf("plant crashes:       %d (recoveries %d)", r.PlantCrashes, r.Recoveries),
		fmt.Sprintf("routes recovered:    %d", r.RoutesRecov),
		fmt.Sprintf("create latency:      %s", r.CreateSecs),
		fmt.Sprintf("orphaned VMs:        %d", r.OrphanVMs),
		fmt.Sprintf("leaked networks:     %d", r.LeakedNets),
	}
	return append(out, injectionLines(r.Injections)...)
}
