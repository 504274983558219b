package workload

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/federation"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
)

// The federation experiment gates the multi-shop control plane, in two
// phases sharing one seed and one fingerprint:
//
// Throughput phase — the scale-out claim. A create–hold–destroy stream
// of W workspace requests is driven once through a single shop fronting
// M plants, then through N cells of M plants each (each cell its own
// testbed, so its own NFS server), with 70% of the requests aimed at
// the first cell. Clients on both sides get the same bounded patience,
// so the single shop sheds the load it cannot admit while the hot cell
// re-auctions its overflow to peers and serves the full stream; the
// goodput ratio must scale near-linearly with the added cells (the
// acceptance gate wants >= 2.5x for 3 cells).
//
// Integrity phase — the exactly-once claim. A create-and-hold wave
// saturates a smaller federation whose hot shop is killed at the
// nastiest cross-cell instant: after a peer built the forwarded VM but
// before the origin committed the route. The supervisor restarts it
// from its journal, reconciliation probes the attempted peers, clients
// re-submit under the same RequestID — and the audit demands zero lost,
// zero duplicated creations across every cell, plus the gossip proof: a
// checkpoint published in one cell warm-clones in another.

// FederationOptions configures a federation run.
type FederationOptions struct {
	Cells    int // default 3
	MaxVMs   int // per-plant VM cap (default 6)
	MemoryMB int // default 64
	// HotShare is the fraction of requests aimed at the first cell
	// (default 0.7); the rest round-robin over the remaining cells.
	HotShare float64

	// PlantsPerCell sizes the throughput phase (default 6): N cells of
	// this many plants against one cell of the same.
	PlantsPerCell int
	// ThroughputRequests is the stream length (default
	// Cells*PlantsPerCell*MaxVMs).
	ThroughputRequests int
	// HoldSecs is how long each workspace lives before the client
	// destroys it (default 15).
	HoldSecs float64

	// IntegrityPlantsPerCell sizes the integrity phase (default 2 — the
	// hot cell must overflow so the kill lands mid-forward).
	IntegrityPlantsPerCell int
	// IntegrityRequests fills the integrity federation exactly (default
	// Cells*IntegrityPlantsPerCell*MaxVMs).
	IntegrityRequests int
	// RestartAfter is the supervisor's delay before restarting the
	// killed hot shop (default 5 s virtual).
	RestartAfter time.Duration
	// ClientRetries bounds request re-submissions (default 10).
	ClientRetries int
	// DisableKill skips the integrity phase's mid-run hot-shop kill.
	DisableKill bool
}

func (o FederationOptions) withDefaults() FederationOptions {
	if o.Cells == 0 {
		o.Cells = 3
	}
	if o.MaxVMs == 0 {
		o.MaxVMs = 6
	}
	if o.MemoryMB == 0 {
		o.MemoryMB = 64
	}
	if o.HotShare == 0 {
		o.HotShare = 0.7
	}
	if o.PlantsPerCell == 0 {
		o.PlantsPerCell = 6
	}
	if o.ThroughputRequests == 0 {
		o.ThroughputRequests = o.Cells * o.PlantsPerCell * o.MaxVMs
	}
	if o.HoldSecs == 0 {
		o.HoldSecs = 15
	}
	if o.IntegrityPlantsPerCell == 0 {
		o.IntegrityPlantsPerCell = 2
	}
	if o.IntegrityRequests == 0 {
		o.IntegrityRequests = o.Cells * o.IntegrityPlantsPerCell * o.MaxVMs
	}
	if o.RestartAfter == 0 {
		o.RestartAfter = 5 * time.Second
	}
	if o.ClientRetries == 0 {
		o.ClientRetries = 10
	}
	return o
}

// SmokeFederationOptions is the CI-gate variant: 3 shops of 6 plants
// each versus 1 shop of 6 plants on the same stream.
func SmokeFederationOptions() FederationOptions {
	return FederationOptions{Cells: 3, PlantsPerCell: 6, ThroughputRequests: 108}
}

// CellLoad is one integrity-phase cell's share of the wave.
type CellLoad struct {
	Cell      string
	Targeted  int // requests clients aimed at this cell
	LiveVMs   int // VMs its plants host at the end
	Forwarded int // creations it re-auctioned to peers
}

// FederationResult reports what a federation run proved.
type FederationResult struct {
	Cells int

	// Throughput phase.
	ThroughputRequests    int
	BaselineSucceeded     int
	FederatedSucceeded    int
	BaselineMakespanSecs  float64
	FederatedMakespanSecs float64
	// Speedup is federated goodput (served / makespan) over the
	// single-shop baseline's on the same offered stream with the same
	// client patience; the acceptance gate wants >= 2.5x for 3 cells.
	Speedup float64

	// Integrity phase.
	Requests  int
	Succeeded int

	// Forward-protocol counters (both phases, all cells).
	PeerBidRounds  int64
	Forwarded      int64
	ForwardFails   int64
	ServedForwards int64

	// Mid-run kill accounting.
	ShopKills    int64
	ShopRestarts int64
	Reconciled   int64
	Deduped      int64
	Lost         int
	Duplicated   int

	// Catalog gossip: derived images imported across cells, and the
	// warm-clone proof — a checkpoint published in one cell matched a
	// later creation in a different cell.
	GossipImported int64
	GossipOK       bool
	WarmCloneOK    bool
	WarmImage      string
	WarmCloneCell  string
	WarmMatchedOps int

	PerCell []CellLoad

	// Journals holds each integrity-phase cell's final shop-journal
	// records and Spans that phase's trace — the experiment's
	// artifacts.
	Journals map[string][]journal.Record
	Spans    []telemetry.Span

	// Fingerprint digests every outcome of both phases; two runs with
	// the same seed must produce identical fingerprints.
	Fingerprint string
}

// fedRecord is one request's client-observed outcome.
type fedRecord struct {
	Seq        int
	TargetCell int
	OK         bool
	VMID       core.VMID
	Plant      string
	Retries    int
	Destroyed  bool
	Err        string
}

// cellName names cell i ("cellA", "cellB", ...).
func cellName(i int) string { return fmt.Sprintf("cell%c", 'A'+i) }

// fedTargets assigns each request a target cell: hotShare of every ten
// requests go to cell 0, the rest round-robin over the others.
func fedTargets(n, cells int, hotShare float64) []int {
	hotPerTen := int(hotShare*10 + 0.5)
	targets := make([]int, n)
	cool := 0
	for i := range targets {
		if i%10 < hotPerTen || cells == 1 {
			targets[i] = 0
		} else {
			targets[i] = 1 + cool%(cells-1)
			cool++
		}
	}
	return targets
}

// runFederatedWave drives the concurrent request wave against the given
// per-request shops, with client retries riding out full cells and shop
// downtime. With hold > 0 each client destroys its workspace after
// holding it, modelling a grid session stream. The records fill in as
// clients finish; once all have, the wave proc stores the makespan and
// runs `after` (post-wave audits that need a live proc), so callers
// read both only after the kernel runs.
func runFederatedWave(k *sim.Kernel, d *Deployment, shops []*shop.Shop, targets []int, opts FederationOptions, prefix string, hold time.Duration, makespan *time.Duration, after func(p *sim.Proc)) []fedRecord {
	n := len(targets)
	records := make([]fedRecord, n)
	done := 0
	main := k.Spawn(prefix+"-wave", func(p *sim.Proc) {
		for done < n {
			p.Wait(24 * time.Hour)
		}
		*makespan = p.Now()
		if after != nil {
			after(p)
		}
	})
	for i := 0; i < n; i++ {
		i := i
		k.Spawn(fmt.Sprintf("%s-client-%03d", prefix, i), func(p *sim.Proc) {
			defer func() { done++; main.WakeUp() }()
			rec := &records[i]
			rec.Seq = i + 1
			rec.TargetCell = targets[i]
			spec, err := d.WorkspaceSpec(i+1, opts.MemoryMB)
			if err != nil {
				rec.Err = err.Error()
				return
			}
			spec.RequestID = fmt.Sprintf("%s-req-%04d", prefix, i+1)
			s := shops[targets[i]]
			for try := 0; ; try++ {
				id, ad, cerr := s.Create(p, spec)
				if cerr == nil {
					rec.OK = true
					rec.VMID = id
					rec.Plant = ad.GetString(core.AttrPlant, "")
					rec.Retries = try
					break
				}
				if try >= opts.ClientRetries {
					rec.Err = cerr.Error()
					return
				}
				if errors.Is(cerr, shop.ErrShopDown) {
					// The supervisor restarts the daemon; re-submit under
					// the same request ID once it should be back.
					p.Sleep(opts.RestartAfter + 2*time.Second)
					continue
				}
				// Transient (cluster momentarily full, peer round
				// exhausted): back off and re-bid.
				p.Sleep(2 * time.Second)
			}
			if hold > 0 {
				p.Sleep(hold)
				for try := 0; try < opts.ClientRetries; try++ {
					if derr := s.Destroy(p, rec.VMID); derr == nil {
						rec.Destroyed = true
						return
					}
					p.Sleep(2 * time.Second)
				}
			}
		})
	}
	return records
}

// buildCells wires a federation of fresh cells on one kernel, each with
// its own testbed. Journals attach only when withJournals is set (the
// integrity phase needs forwarded intents durable in both cells).
func buildCells(k *sim.Kernel, hub *telemetry.Hub, seed int64, opts FederationOptions, plantsPerCell int, withJournals bool) ([]*Deployment, []*shop.Shop, []*journal.Journal, *federation.Federation, error) {
	cells := make([]*Deployment, opts.Cells)
	shops := make([]*shop.Shop, opts.Cells)
	jnls := make([]*journal.Journal, opts.Cells)
	fed := federation.New(k)
	fed.SetTelemetry(hub)
	for i := range cells {
		d, err := NewDeployment(Options{
			Kernel:   k,
			CellName: cellName(i),
			Plants:   plantsPerCell,
			Seed:     seed + int64(i)*101,
			PlantConfig: plant.Config{
				MaxVMs:      opts.MaxVMs,
				PublishBack: true,
			},
			Telemetry: hub,
		})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if withJournals {
			vol := storage.NewVolume(cellName(i)+"-log",
				storage.NewDevice(cellName(i)+"-log-disk", 64<<20, 100*time.Microsecond))
			jnl := journal.Open(vol, "journal/"+cellName(i))
			jnl.SetTelemetry(hub)
			d.Shop.SetJournal(jnl)
			jnls[i] = jnl
		}
		cells[i] = d
		shops[i] = d.Shop
		if err := fed.AddCell(&federation.Cell{Name: cellName(i), Shop: d.Shop, Warehouse: d.Warehouse}); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	fed.Wire()
	fed.Start(k)
	return cells, shops, jnls, fed, nil
}

// forwardCounters accumulates the forward-protocol counters of one
// phase's hub into the result.
func (r *FederationResult) forwardCounters(hub *telemetry.Hub) {
	r.PeerBidRounds += hub.Counter("shop.peer_bid_rounds").Value()
	r.Forwarded += hub.Counter("shop.forwarded_creates").Value()
	r.ForwardFails += hub.Counter("shop.forward_failures").Value()
	r.ServedForwards += hub.Counter("shop.served_forwards").Value()
}

// runThroughputPhase measures the scale-out claim: the same stream
// through 1 shop × M plants, then through N shops × M plants.
func runThroughputPhase(seed int64, opts FederationOptions, res *FederationResult, fp *[]string) error {
	hold := time.Duration(opts.HoldSecs * float64(time.Second))
	w := opts.ThroughputRequests

	base, err := NewDeployment(Options{
		Plants: opts.PlantsPerCell,
		Seed:   seed,
		PlantConfig: plant.Config{
			MaxVMs:      opts.MaxVMs,
			PublishBack: true,
		},
	})
	if err != nil {
		return err
	}
	var baseSpan time.Duration
	baseRecs := runFederatedWave(base.Kernel, base, []*shop.Shop{base.Shop},
		make([]int, w), opts, "base", hold, &baseSpan, nil)
	if r := base.Kernel.Run(0); len(r.Stranded) != 0 {
		return fmt.Errorf("federation baseline: stranded processes: %v", r.Stranded)
	}

	hub := telemetry.New()
	k := sim.NewKernel()
	k.SetTelemetry(hub)
	cells, shops, _, fed, err := buildCells(k, hub, seed+1, opts, opts.PlantsPerCell, false)
	if err != nil {
		return err
	}
	var fedSpan time.Duration
	fedRecs := runFederatedWave(k, cells[0], shops,
		fedTargets(w, opts.Cells, opts.HotShare), opts, "scale", hold, &fedSpan,
		func(p *sim.Proc) { fed.Stop() })
	if r := k.Run(0); len(r.Stranded) != 0 {
		return fmt.Errorf("federation scale-out: stranded processes: %v", r.Stranded)
	}

	for i := range baseRecs {
		if baseRecs[i].OK {
			res.BaselineSucceeded++
		}
		if fedRecs[i].OK {
			res.FederatedSucceeded++
		}
		*fp = append(*fp, fmt.Sprintf("stream %d base ok=%v retries=%d | fed cell=%s ok=%v plant=%s retries=%d",
			i+1, baseRecs[i].OK, baseRecs[i].Retries,
			cellName(fedRecs[i].TargetCell), fedRecs[i].OK, fedRecs[i].Plant, fedRecs[i].Retries))
	}
	res.BaselineMakespanSecs = baseSpan.Seconds()
	res.FederatedMakespanSecs = fedSpan.Seconds()
	if res.BaselineMakespanSecs > 0 && res.FederatedMakespanSecs > 0 && res.BaselineSucceeded > 0 {
		baseTput := float64(res.BaselineSucceeded) / res.BaselineMakespanSecs
		fedTput := float64(res.FederatedSucceeded) / res.FederatedMakespanSecs
		res.Speedup = fedTput / baseTput
	}
	res.forwardCounters(hub)
	*fp = append(*fp, fmt.Sprintf("throughput: base %d/%d in %.1fs, federated %d/%d in %.1fs, speedup %.3f",
		res.BaselineSucceeded, w, res.BaselineMakespanSecs,
		res.FederatedSucceeded, w, res.FederatedMakespanSecs, res.Speedup))
	return nil
}

// runIntegrityPhase drives the kill/reconcile/gossip wave and its
// exactly-once audit.
func runIntegrityPhase(seed int64, opts FederationOptions, res *FederationResult, fp *[]string) error {
	hub := telemetry.New()
	reg := fault.NewRegistry(seed + 7919)
	reg.SetTelemetry(hub)
	k := sim.NewKernel()
	k.SetTelemetry(hub)
	cells, shops, jnls, fed, err := buildCells(k, hub, seed+2, opts, opts.IntegrityPlantsPerCell, true)
	if err != nil {
		return err
	}
	for _, s := range shops {
		s.Faults = reg
	}
	targets := fedTargets(opts.IntegrityRequests, opts.Cells, opts.HotShare)

	hot := shops[0]
	if !opts.DisableKill {
		// Die at the worst cross-cell instant: the peer has built the
		// forwarded VM, the origin has not committed the route.
		reg.Arm(hot.Name(), fault.DaemonKill, "forward", 1)
	}

	var supLines []string
	supStop := false
	sup := k.Spawn("fed-supervisor", func(p *sim.Proc) {
		for !supStop {
			if hot.Down() {
				p.Sleep(opts.RestartAfter)
				st, rerr := hot.Restart(p)
				if rerr != nil {
					p.Failf("federation: hot shop restart: %v", rerr)
				}
				supLines = append(supLines, fmt.Sprintf(
					"hot restart at %.1fs: replayed=%d routes=%d reconciled=%d redriven=%d unresolved=%d",
					p.Now().Seconds(), st.Replayed, st.Routes, st.Reconciled, st.Redriven, st.Unresolved))
				continue
			}
			p.Wait(time.Second)
		}
	})

	var runErr error
	var lines []string
	var fedRecs []fedRecord
	var fedSpan time.Duration
	fedRecs = runFederatedWave(k, cells[0], shops, targets, opts, "fed", 0, &fedSpan, func(p *sim.Proc) {
		// Let straggler publish-back uploads land before gossiping.
		p.Sleep(30 * time.Second)

		// Exactly-once audit, half one: every acked creation is
		// queryable through the shop that acked it (local or forwarded).
		for i := range fedRecs {
			r := &fedRecs[i]
			if !r.OK {
				continue
			}
			res.Succeeded++
			if _, qerr := shops[r.TargetCell].Query(p, r.VMID); qerr != nil {
				res.Lost++
				lines = append(lines, fmt.Sprintf("LOST %s (req %d): %v", r.VMID, r.Seq, qerr))
			}
		}

		// Exactly-once audit, half two: the plants across every cell
		// host exactly one VM per acked request.
		unique := make(map[core.VMID]bool)
		for i := range fedRecs {
			if fedRecs[i].OK {
				unique[remoteID(shops[fedRecs[i].TargetCell], fedRecs[i].VMID)] = true
			}
		}
		live := 0
		for _, d := range cells {
			for _, pl := range d.Plants {
				live += pl.ActiveVMs()
			}
		}
		res.Duplicated = live - len(unique)
		if len(unique) < res.Succeeded {
			res.Duplicated += res.Succeeded - len(unique)
		}

		// Catalog gossip + warm-clone proof. The donor is the first
		// acked request whose VM was built outside the warm cell, so
		// its publish-back checkpoint can only reach the warm cell via
		// gossip. Re-instantiating the same user's workspace there must
		// then clone the gossiped derived image.
		warmCell := opts.Cells - 1
		donor := -1
		for i, r := range fedRecs {
			if r.OK && !strings.HasPrefix(r.Plant, cellName(warmCell)+"/") {
				donor = i
				break
			}
		}
		g := fed.GossipNow(p)
		lines = append(lines, fmt.Sprintf("gossip: imported=%d deferred=%d rejected=%d poisoned=%d",
			g.Imported, g.Deferred, g.Rejected, g.Poisoned))
		if donor >= 0 {
			// Make room in the warm cell, then re-run the donor's spec.
			freed := false
			for i := len(fedRecs) - 1; i >= 0; i-- {
				r := fedRecs[i]
				if r.OK && r.TargetCell == warmCell && strings.HasPrefix(r.Plant, cellName(warmCell)+"/") {
					if derr := shops[warmCell].Destroy(p, r.VMID); derr == nil {
						freed = true
						break
					}
				}
			}
			if !freed {
				lines = append(lines, "warm check: no local VM to evict in warm cell")
			}
			spec, serr := cells[0].WorkspaceSpec(fedRecs[donor].Seq, opts.MemoryMB)
			if serr != nil {
				runErr = serr
				return
			}
			spec.RequestID = "fed-warm-check"
			_, ad, cerr := shops[warmCell].Create(p, spec)
			if cerr != nil {
				lines = append(lines, fmt.Sprintf("warm check FAILED: %v", cerr))
			} else {
				res.WarmImage = ad.GetString(core.AttrGoldenImage, "")
				res.WarmCloneCell = cellName(warmCell)
				res.WarmMatchedOps = int(ad.GetInt(core.AttrMatchedOps, 0))
				if im, ok := cells[warmCell].Warehouse.Lookup(res.WarmImage); ok && im.Derived {
					res.WarmCloneOK = true
					// The image is matchable cluster-wide only if every
					// cell now has it.
					res.GossipOK = true
					for _, d := range cells {
						if _, ok := d.Warehouse.Lookup(res.WarmImage); !ok {
							res.GossipOK = false
						}
					}
				}
				lines = append(lines, fmt.Sprintf("warm clone in %s: image=%s derived=%v matched=%d",
					res.WarmCloneCell, res.WarmImage, res.WarmCloneOK, res.WarmMatchedOps))
			}
		} else {
			lines = append(lines, "warm check: no donor outside warm cell")
		}

		// Shut the long-lived procs down so the kernel can quiesce.
		supStop = true
		sup.WakeUp()
		fed.Stop()
	})

	if r := k.Run(0); len(r.Stranded) != 0 {
		return fmt.Errorf("federation integrity: stranded processes: %v", r.Stranded)
	}
	if runErr != nil {
		return runErr
	}

	for _, r := range fedRecs {
		if !r.OK {
			lines = append(lines, fmt.Sprintf("req %d FAILED %s", r.Seq, r.Err))
		}
	}

	res.forwardCounters(hub)
	res.ShopKills = hub.Counter("shop.crashes").Value()
	res.ShopRestarts = hub.Counter("shop.restarts").Value()
	res.Reconciled = hub.Counter("shop.reconciled_creates").Value()
	res.Deduped = hub.Counter("shop.deduped_creates").Value()
	res.GossipImported = hub.Counter("federation.images_imported").Value()

	for i, d := range cells {
		load := CellLoad{Cell: cellName(i)}
		for _, t := range targets {
			if t == i {
				load.Targeted++
			}
		}
		for _, pl := range d.Plants {
			load.LiveVMs += pl.ActiveVMs()
		}
		load.Forwarded = len(d.Shop.Federation().Forwarded)
		res.PerCell = append(res.PerCell, load)
	}

	res.Journals = make(map[string][]journal.Record, opts.Cells)
	for i, jnl := range jnls {
		res.Journals[cellName(i)] = jnl.Records()
	}
	res.Spans = hub.Tracer.Spans()

	for _, r := range fedRecs {
		*fp = append(*fp, fmt.Sprintf("req %d cell=%s ok=%v id=%s plant=%s retries=%d",
			r.Seq, cellName(r.TargetCell), r.OK, r.VMID, r.Plant, r.Retries))
	}
	*fp = append(*fp, supLines...)
	*fp = append(*fp, lines...)
	*fp = append(*fp, reg.Summary()...)
	return nil
}

// RunFederation measures the federated control plane against a
// single-shop baseline and audits the forward protocol under a mid-run
// shop kill.
func RunFederation(seed int64, opts FederationOptions) (*FederationResult, error) {
	opts = opts.withDefaults()
	res := &FederationResult{
		Cells:              opts.Cells,
		ThroughputRequests: opts.ThroughputRequests,
		Requests:           opts.IntegrityRequests,
	}
	var fp []string
	if err := runThroughputPhase(seed, opts, res, &fp); err != nil {
		return nil, err
	}
	if err := runIntegrityPhase(seed, opts, res, &fp); err != nil {
		return nil, err
	}
	fp = append(fp, fmt.Sprintf(
		"forwarded=%d fails=%d served=%d kills=%d restarts=%d reconciled=%d deduped=%d lost=%d dup=%d imported=%d",
		res.Forwarded, res.ForwardFails, res.ServedForwards, res.ShopKills, res.ShopRestarts,
		res.Reconciled, res.Deduped, res.Lost, res.Duplicated, res.GossipImported))
	res.Fingerprint = strings.Join(fp, "\n")
	return res, nil
}

// remoteID resolves the VMID actually hosted on a plant: for a
// forwarded creation the origin acked its own ID while the serving
// cell's plant runs the peer-minted one.
func remoteID(s *shop.Shop, id core.VMID) core.VMID {
	if _, remote, ok := s.ForwardedTo(id); ok {
		return remote
	}
	return id
}

// GateViolations lists every acceptance-gate failure (empty = pass).
// The federation must serve the entire offered stream; the single shop
// may shed load (that is the point), but must serve something or the
// goodput ratio is meaningless.
func (r *FederationResult) GateViolations() []string {
	var v violations
	v.check(r.FederatedSucceeded == r.ThroughputRequests,
		"federated stream served %d/%d", r.FederatedSucceeded, r.ThroughputRequests)
	v.check(r.BaselineSucceeded > 0, "single-shop baseline served 0/%d", r.ThroughputRequests)
	v.check(r.Speedup >= 2.5, "goodput speedup %.2fx, want >= 2.5x", r.Speedup)
	v.check(r.Succeeded == r.Requests, "integrity wave served %d/%d", r.Succeeded, r.Requests)
	v.check(r.Forwarded > 0 && r.ServedForwards > 0,
		"hot cell never overflowed: forwarded=%d served=%d", r.Forwarded, r.ServedForwards)
	v.check(r.Lost == 0 && r.Duplicated == 0, "exactly-once violated: lost=%d duplicated=%d", r.Lost, r.Duplicated)
	v.check(r.ShopKills > 0 && r.ShopRestarts > 0, "kill/restart = %d/%d, want both > 0", r.ShopKills, r.ShopRestarts)
	v.check(r.GossipOK, "catalog gossip did not reach every cell")
	v.check(r.WarmCloneOK, "no derived image cloned warm in another cell")
	return v
}

// Report renders the run as printable lines.
func (r *FederationResult) Report() []string {
	out := []string{
		fmt.Sprintf("cells:                %d", r.Cells),
		fmt.Sprintf("stream:               %d requests (create-hold-destroy)", r.ThroughputRequests),
		fmt.Sprintf("  1 shop:             %d/%d served, makespan %.1fs", r.BaselineSucceeded, r.ThroughputRequests, r.BaselineMakespanSecs),
		fmt.Sprintf("  %d shops:            %d/%d served, makespan %.1fs", r.Cells, r.FederatedSucceeded, r.ThroughputRequests, r.FederatedMakespanSecs),
		fmt.Sprintf("  goodput speedup:    %.2fx", r.Speedup),
		fmt.Sprintf("integrity wave:       %d requests (succeeded %d)", r.Requests, r.Succeeded),
		fmt.Sprintf("peer bid rounds:      %d (forwarded %d, failed %d, served %d)",
			r.PeerBidRounds, r.Forwarded, r.ForwardFails, r.ServedForwards),
		fmt.Sprintf("hot-shop kills:       %d (restarts %d, reconciled %d, deduped %d)",
			r.ShopKills, r.ShopRestarts, r.Reconciled, r.Deduped),
		fmt.Sprintf("lost creations:       %d", r.Lost),
		fmt.Sprintf("duplicated VMs:       %d", r.Duplicated),
		fmt.Sprintf("gossip imports:       %d (cluster-wide %v)", r.GossipImported, r.GossipOK),
		fmt.Sprintf("warm clone:           %v (%s in %s, matched %d ops)",
			r.WarmCloneOK, r.WarmImage, r.WarmCloneCell, r.WarmMatchedOps),
	}
	for _, c := range r.PerCell {
		out = append(out, fmt.Sprintf("  %s: targeted %d, hosts %d VMs, forwarded %d",
			c.Cell, c.Targeted, c.LiveVMs, c.Forwarded))
	}
	return out
}
