package workload

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/cost"
	"vmplants/internal/fault"
	"vmplants/internal/fleet"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
)

// The diurnal experiment is the elasticity stack's CI gate: a simulated
// week of load — Zipf-skewed image popularity riding a day/night sine,
// flash crowds, scheduled maintenance windows — against a shop with a
// bounded admission gate and a fleet controller that grows and shrinks
// the plant set. The discrete-event substrate compresses the week into
// seconds of wall clock. The run passes only if the standing SLOs hold
// over the whole week, the fleet actually flexed (scale-ups and
// drain/retires both happened, one retirement crossing a kill -9), no
// VM was orphaned, no virtual network or extent reference leaked, every
// shed request was retryable, and two same-seed runs are byte-identical.

// DiurnalOptions tunes RunDiurnal. Zero values select the defaults.
type DiurnalOptions struct {
	// Days is the simulated horizon (default 7).
	Days int
	// Plants is the testbed size — every node that could ever host a
	// plant (default 6). Standby of them start outside the shop's
	// rotation as the controller's provisioning pool (default 3).
	Plants  int
	Standby int
	// BaseRatePerHour is the day-average arrival rate (default 2).
	BaseRatePerHour float64
	// Amplitude is the sine's swing as a fraction of the base rate, in
	// [0, 1) (default 0.7): peak at 14:00, trough at 02:00.
	Amplitude float64
	// ZipfS is the image-popularity exponent (default 1.3). Daytime
	// ranks the catalog small-first (interactive workspaces); night
	// reverses it (big batch images).
	ZipfS float64
	// SizesMB is the image catalog by memory size (default 32/64/256).
	SizesMB []int
	// HoldMean is the mean VM lifetime before the client collects it
	// (default 4 h, exponentially distributed).
	HoldMean time.Duration
	// FlashCrowds schedules demand spikes: at each offset from the start
	// of the run, FlashCrowdSize extra requests arrive within one
	// minute (defaults: day 1 20:00 and day 4 13:00, 14 requests).
	FlashCrowds    []time.Duration
	FlashCrowdSize int
	// Maintenance schedules plant retirements: at each offset the
	// longest-serving active plant is drained and retired (defaults:
	// day 2 04:00 and day 5 04:00).
	Maintenance []time.Duration
	// KillMidDrain arms a kill -9 on the shop daemon inside the first
	// maintenance drain; the supervisor restarts it from the journal and
	// resumes the drain (default true — set NoKill to disable).
	NoKill bool
	// RestartAfter is the supervisor's restart delay (default 30 s).
	RestartAfter time.Duration
	// ClientRetries bounds per-request resubmissions (default 10);
	// RetryBackoff is the base backoff, doubled per attempt (default 90 s).
	ClientRetries int
	RetryBackoff  time.Duration
	// Admission bounds the shop's front door (default: 4 in flight,
	// 8 queued, shed past a 10-minute projected wait at a 3-minute
	// service estimate).
	Admission shop.AdmissionConfig
	// Fleet tunes the autoscaler (default: 2..Plants plants, 5-minute
	// ticks, 90-minute cooldown, scale up at queue depth 3, shrink
	// after 24 calm ticks).
	Fleet fleet.Config
}

func (o DiurnalOptions) withDefaults() DiurnalOptions {
	if o.Days == 0 {
		o.Days = 7
	}
	if o.Plants == 0 {
		o.Plants = 6
	}
	if o.Standby == 0 {
		o.Standby = 3
	}
	if o.BaseRatePerHour == 0 {
		o.BaseRatePerHour = 2
	}
	if o.Amplitude == 0 {
		o.Amplitude = 0.7
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.3
	}
	if len(o.SizesMB) == 0 {
		o.SizesMB = []int{32, 64, 256}
	}
	if o.HoldMean == 0 {
		o.HoldMean = 4 * time.Hour
	}
	if o.FlashCrowds == nil {
		o.FlashCrowds = []time.Duration{
			44 * time.Hour,  // day 1, 20:00
			109 * time.Hour, // day 4, 13:00
		}
	}
	if o.FlashCrowdSize == 0 {
		o.FlashCrowdSize = 14
	}
	if o.Maintenance == nil {
		o.Maintenance = []time.Duration{
			52 * time.Hour,  // day 2, 04:00
			124 * time.Hour, // day 5, 04:00
		}
	}
	if o.RestartAfter == 0 {
		o.RestartAfter = 30 * time.Second
	}
	if o.ClientRetries == 0 {
		o.ClientRetries = 10
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 90 * time.Second
	}
	if o.Admission.MaxInflight == 0 {
		o.Admission = shop.AdmissionConfig{
			MaxInflight:     4,
			MaxQueue:        6,
			MaxWait:         10 * time.Minute,
			ServiceEstimate: 3 * time.Minute,
		}
	}
	if o.Fleet.MinPlants == 0 {
		o.Fleet = fleet.Config{
			MinPlants:       2,
			MaxPlants:       o.Plants,
			Tick:            5 * time.Minute,
			Cooldown:        30 * time.Minute,
			ScaleUpDepth:    3,
			ScaleUpFailures: 1,
			QuietTicks:      24,
		}
	}
	return o
}

// SmokeDiurnalOptions compresses the run for CI: two days, a hotter
// request stream, one flash crowd and one maintenance window per day.
func SmokeDiurnalOptions() DiurnalOptions {
	return DiurnalOptions{
		Days:            2,
		Plants:          5,
		Standby:         2,
		BaseRatePerHour: 3,
		FlashCrowds:     []time.Duration{20 * time.Hour, 37 * time.Hour},
		FlashCrowdSize:  10,
		Maintenance:     []time.Duration{28 * time.Hour, 42 * time.Hour},
		HoldMean:        2 * time.Hour,
		Admission: shop.AdmissionConfig{
			MaxInflight:     3,
			MaxQueue:        4,
			MaxWait:         10 * time.Minute,
			ServiceEstimate: 3 * time.Minute,
		},
		Fleet: fleet.Config{
			MinPlants:       2,
			MaxPlants:       5,
			Tick:            2 * time.Minute,
			Cooldown:        10 * time.Minute,
			ScaleUpDepth:    2,
			ScaleUpFailures: 1,
			QuietTicks:      45,
		},
	}
}

// DiurnalResult is one run's outcome plus its audits.
type DiurnalResult struct {
	Days      int
	Requests  int
	Succeeded int
	// FailedFinal counts requests abandoned after every retry.
	FailedFinal int
	// Shed counts ErrOverload refusals; NonRetryableSheds counts sheds
	// that were not in the transient class (must be zero — a shed
	// request must always be safe to resubmit).
	Shed              int
	NonRetryableSheds int
	// DestroyFails counts collections abandoned after every retry.
	DestroyFails int

	ScaleUps   int
	ScaleDowns int
	Retired    int
	Migrated   int64

	ShopKills     int64
	ShopRestarts  int64
	ResumedDrains int

	// OrphanVMs counts VMs still hosted anywhere (any plant ever in the
	// fleet, retired ones included) after every client collected.
	OrphanVMs int
	// LeakedNets counts virtual networks still allocated after the last
	// VM was collected; LeakedExtentRefs is extent-store references
	// above the published-catalog baseline.
	LeakedNets       int
	LeakedExtentRefs int

	Objectives []telemetry.ObjectiveStatus
	SLOsHold   bool

	PeakPlants int
	// Fingerprint digests every virtual-time observable; same-seed runs
	// must match byte for byte.
	Fingerprint string

	// Journal is the shop's full write-ahead log and Spans the run's
	// span set — the experiment's artifacts.
	Journal []journal.Record
	Spans   []telemetry.Span
}

// GateViolations lists every acceptance-gate failure (empty = pass).
func (r *DiurnalResult) GateViolations() []string {
	var v violations
	v.check(r.SLOsHold, "SLOs violated over the week")
	v.check(r.ScaleUps >= 2, "scale-ups = %d, want >= 2", r.ScaleUps)
	v.check(r.Retired >= 2, "drain/retires = %d, want >= 2", r.Retired)
	v.check(r.ShopKills >= 1, "no shop kill landed mid-drain")
	v.check(r.ShopRestarts >= 1, "killed shop never restarted")
	v.check(r.ResumedDrains >= 1, "interrupted drain never resumed")
	v.check(r.OrphanVMs == 0, "orphaned VMs = %d", r.OrphanVMs)
	v.check(r.LeakedNets == 0, "leaked virtual networks = %d", r.LeakedNets)
	v.check(r.LeakedExtentRefs == 0, "leaked extent refs = %d", r.LeakedExtentRefs)
	v.check(r.Shed > 0, "overload path never exercised (0 sheds)")
	v.check(r.NonRetryableSheds == 0, "non-retryable sheds = %d", r.NonRetryableSheds)
	v.check(r.FailedFinal == 0, "requests abandoned = %d", r.FailedFinal)
	v.check(r.DestroyFails == 0, "collections abandoned = %d", r.DestroyFails)
	return v
}

// Report renders the run as printable lines.
func (r *DiurnalResult) Report() []string {
	out := []string{
		fmt.Sprintf("simulated days:     %d", r.Days),
		fmt.Sprintf("requests:           %d (succeeded %d, abandoned %d)", r.Requests, r.Succeeded, r.FailedFinal),
		fmt.Sprintf("shed at admission:  %d (non-retryable %d)", r.Shed, r.NonRetryableSheds),
		fmt.Sprintf("scale-ups:          %d (peak fleet %d plants)", r.ScaleUps, r.PeakPlants),
		fmt.Sprintf("drain/retires:      %d (controller %d, migrations %d)", r.Retired, r.ScaleDowns, r.Migrated),
		fmt.Sprintf("shop kills:         %d (restarts %d, drains resumed %d)", r.ShopKills, r.ShopRestarts, r.ResumedDrains),
		fmt.Sprintf("orphaned VMs:       %d", r.OrphanVMs),
		fmt.Sprintf("leaked nets:        %d", r.LeakedNets),
		fmt.Sprintf("leaked extent refs: %d", r.LeakedExtentRefs),
		fmt.Sprintf("collect failures:   %d", r.DestroyFails),
	}
	for _, st := range r.Objectives {
		out = append(out, fmt.Sprintf("slo %-16s ok=%-5v value=%.4g bound=%g burn=%.3g (n=%d)",
			st.Name, st.OK, st.Value, st.Bound, st.Burn, st.Samples))
	}
	return out
}

// rate is the diurnal arrival intensity at elapsed virtual time t, in
// arrivals per hour: the base rate swung by a 24-hour sine peaking at
// 14:00 and bottoming at 02:00.
func (o DiurnalOptions) rate(t time.Duration) float64 {
	hour := t.Hours()
	return o.BaseRatePerHour * (1 + o.Amplitude*math.Sin(2*math.Pi*(hour-8)/24))
}

// daytime reports whether the sine is in its positive half at t — the
// interactive half of the popularity mixture.
func (o DiurnalOptions) daytime(t time.Duration) bool {
	hour := math.Mod(t.Hours(), 24)
	return hour >= 8 && hour < 20
}

// RunDiurnal drives the simulated week and audits the fleet's behavior.
func RunDiurnal(seed int64, opts DiurnalOptions) (*DiurnalResult, error) {
	opts = opts.withDefaults()
	hub := telemetry.New()
	hub.Tracer = telemetry.NewTracer(1 << 16)
	reg := fault.NewRegistry(seed + 104729)
	reg.SetTelemetry(hub)

	d, err := NewDeployment(Options{
		Plants:        opts.Plants,
		StandbyPlants: opts.Standby,
		Seed:          seed,
		GoldenSizesMB: opts.SizesMB,
		Telemetry:     hub,
	})
	if err != nil {
		return nil, err
	}
	d.Shop.Faults = reg
	d.Shop.SetAdmission(opts.Admission)

	// Journal: the drain protocol's durability (and the mid-drain kill's
	// recovery) rides the shop's write-ahead log.
	logVol := storage.NewVolume("shop-log", storage.NewDevice("shop-log-disk", 64<<20, 100*time.Microsecond))
	jnl := journal.Open(logVol, "journal/shop")
	jnl.SetTelemetry(hub)
	d.Shop.SetJournal(jnl)

	hub.M().ResetHistograms()
	hub.SLO = telemetry.NewSLOEngine(hub.M(), DefaultSLOObjectives()...)

	// The provisioning pool: standby plants first, then fresh plants on
	// nodes whose previous tenant retired (a maintenance window returns
	// its node to service under a new generation name — retirement is
	// forever for a plant name, not for the hardware).
	model, err := cost.ByName(d.Opts.CostModelName)
	if err != nil {
		return nil, err
	}
	allPlants := append([]*plant.Plant(nil), d.Plants...)
	tenant := make([]string, len(d.Testbed.Nodes)) // node index → current plant name
	for i, pl := range d.Plants {
		tenant[i] = pl.Name()
	}
	gen := make([]int, len(d.Testbed.Nodes))
	activeBase := opts.Plants - opts.Standby
	provision := func(p *sim.Proc, idx int) (shop.PlantHandle, error) {
		if idx < opts.Standby {
			return d.Handles[activeBase+idx], nil
		}
		for i, name := range tenant {
			if name != "" && !d.Shop.Retired(name) {
				continue
			}
			gen[i]++
			pname := fmt.Sprintf("%s-g%d", d.Testbed.Nodes[i].Name(), gen[i]+1)
			pl := plant.New(pname, d.Testbed.Nodes[i], d.Warehouse,
				plant.Config{CostModel: model, Telemetry: hub})
			allPlants = append(allPlants, pl)
			tenant[i] = pname
			return shop.NewLocalHandle(pl), nil
		}
		return nil, fmt.Errorf("diurnal: every node occupied")
	}
	c := fleet.New(opts.Fleet, d.Shop, hub, nil, provision)

	baseExtentRefs := d.Warehouse.ExtentStatsNow().Refs

	res := &DiurnalResult{Days: opts.Days}
	var lines []string // fingerprint material
	rng := sim.NewRNG(seed + 7919)
	horizon := time.Duration(opts.Days) * 24 * time.Hour
	rateMax := opts.BaseRatePerHour * (1 + opts.Amplitude)
	pending := 0 // arrivals not yet settled (success held+collected, or failed)

	// One arrival: create with retry/backoff, hold, collect. Runs on its
	// own proc; hold is drawn by the caller to keep the RNG stream in
	// spawn order (deterministic) rather than completion order.
	arrival := func(seq, memMB int, hold time.Duration, label string) {
		d.Kernel.Spawn(fmt.Sprintf("%s-%04d", label, seq), func(ap *sim.Proc) {
			defer func() { pending-- }()
			spec, serr := d.WorkspaceSpec(seq, memMB)
			if serr != nil {
				res.FailedFinal++
				return
			}
			spec.RequestID = fmt.Sprintf("req-%05d", seq)
			var id core.VMID
			for try := 0; ; try++ {
				var cerr error
				id, _, cerr = d.Shop.Create(ap, spec)
				if cerr == nil {
					break
				}
				if errors.Is(cerr, shop.ErrOverload) {
					res.Shed++
					if !errors.Is(cerr, core.ErrTransient) {
						res.NonRetryableSheds++
					}
				}
				if try >= opts.ClientRetries {
					res.FailedFinal++
					lines = append(lines, fmt.Sprintf("req %05d FAILED t=%.0f %v", seq, ap.Now().Seconds(), cerr))
					return
				}
				// Back off harder each attempt; the shop's supervisor (the
				// maintenance proc) owns restarts, clients just wait out a
				// dead or overloaded daemon.
				backoff := opts.RetryBackoff << uint(min(try, 3))
				ap.Sleep(backoff)
			}
			res.Succeeded++
			lines = append(lines, fmt.Sprintf("req %05d ok %s route=%s t=%.0f",
				seq, id, d.Shop.RouteOf(id), ap.Now().Seconds()))
			ap.Sleep(hold)
			for try := 0; ; try++ {
				if derr := d.Shop.Destroy(ap, id); derr == nil {
					return
				}
				if try >= opts.ClientRetries {
					res.DestroyFails++
					lines = append(lines, fmt.Sprintf("req %05d COLLECT-FAILED %s", seq, id))
					return
				}
				ap.Sleep(opts.RetryBackoff)
			}
		})
	}

	var runErr error
	err = d.Run(func(p *sim.Proc) {
		c.Start(p.Kernel())

		// Maintenance windows: drain and retire the longest-serving
		// active plant at each scheduled offset. The first window carries
		// the chaos gate's kill -9: the daemon dies with the drain open,
		// the supervisor restarts it from the journal and resumes.
		for i, at := range opts.Maintenance {
			kill := i == 0 && !opts.NoKill
			p.Kernel().Spawn(fmt.Sprintf("maintenance-%d", i), func(mp *sim.Proc) {
				mp.Sleep(at)
				victim := ""
				for _, h := range d.Shop.Plants() {
					name := h.Name()
					if d.Shop.Draining(name) {
						continue
					}
					if victim == "" || name < victim {
						victim = name
					}
				}
				if victim == "" {
					return
				}
				if kill {
					reg.Arm(d.Shop.Name(), fault.DaemonKill, "drain", 1)
				}
				derr := d.Shop.DrainAndRetire(mp, victim)
				if errors.Is(derr, shop.ErrShopDown) {
					mp.Sleep(opts.RestartAfter)
					st, rerr := d.Shop.Restart(mp)
					if rerr != nil {
						runErr = rerr
						return
					}
					lines = append(lines, fmt.Sprintf("maintenance %d: shop restarted replayed=%d routes=%d open_drains=%v",
						i, st.Replayed, st.Routes, d.Shop.OpenDrains()))
					if rerr := d.Shop.ResumeDrains(mp); rerr != nil {
						runErr = rerr
						return
					}
					res.ResumedDrains++
					derr = nil
				}
				if derr != nil {
					runErr = fmt.Errorf("maintenance drain of %s: %w", victim, derr)
					return
				}
				lines = append(lines, fmt.Sprintf("maintenance %d: retired %s t=%.0f", i, victim, mp.Now().Seconds()))
			})
		}

		// Flash crowds: a burst of extra arrivals inside one minute.
		seq := 0
		for i, at := range opts.FlashCrowds {
			offsets := make([]time.Duration, opts.FlashCrowdSize)
			holds := make([]time.Duration, opts.FlashCrowdSize)
			sizes := make([]int, opts.FlashCrowdSize)
			for j := range offsets {
				offsets[j] = time.Duration(rng.Uniform(0, 60)) * time.Second
				holds[j] = time.Duration(rng.Exp(opts.HoldMean.Seconds())) * time.Second
				sizes[j] = opts.SizesMB[rng.Zipf(len(opts.SizesMB), opts.ZipfS)]
			}
			base := opts.Days * 100000 // flash-crowd seqs outside the steady stream's range
			crowd := i
			p.Kernel().Spawn(fmt.Sprintf("flash-%d", i), func(fp *sim.Proc) {
				fp.Sleep(at)
				start := fp.Now()
				for j := range offsets {
					fp.Sleep(start + offsets[j] - fp.Now())
					pending++
					arrival(base+crowd*1000+j, sizes[j], holds[j], "flash")
				}
			})
		}

		// The steady stream: a non-homogeneous Poisson process by
		// thinning against the peak rate.
		for p.Now() < horizon {
			p.Sleep(time.Duration(rng.Exp(3600/rateMax)) * time.Second)
			if p.Now() >= horizon {
				break
			}
			if rng.Float64() >= opts.rate(p.Now())/rateMax {
				continue
			}
			seq++
			ranked := append([]int(nil), opts.SizesMB...)
			if !opts.daytime(p.Now()) {
				for l, r := 0, len(ranked)-1; l < r; l, r = l+1, r-1 {
					ranked[l], ranked[r] = ranked[r], ranked[l]
				}
			}
			memMB := ranked[rng.Zipf(len(ranked), opts.ZipfS)]
			hold := time.Duration(rng.Exp(opts.HoldMean.Seconds())) * time.Second
			pending++
			arrival(seq, memMB, hold, "arrival")
			if n := len(d.Shop.Plants()); n > res.PeakPlants {
				res.PeakPlants = n
			}
		}
		res.Requests = seq + len(opts.FlashCrowds)*opts.FlashCrowdSize

		// Drain the tail: every arrival settles, every hold collects,
		// every open drain retires.
		for pending > 0 {
			p.Sleep(5 * time.Minute)
		}
		for len(d.Shop.OpenDrains()) > 0 || c.Status().Draining > 0 {
			p.Sleep(time.Minute)
		}
		c.Stop()
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}

	// Audit 1 — fleet flexing.
	st := c.Status()
	res.ScaleUps = st.ScaleUps
	res.ScaleDowns = st.ScaleDowns
	if n := len(d.Shop.Plants()); n > res.PeakPlants {
		res.PeakPlants = n
	}
	res.Retired = int(hub.Counter("shop.plant_retirements").Value())
	res.Migrated = hub.Counter("shop.drain_migrations").Value()
	res.ShopKills = hub.Counter("shop.crashes").Value()
	res.ShopRestarts = hub.Counter("shop.restarts").Value()

	// Audit 2 — nothing orphaned, nothing leaked. Every VM was
	// collected, so every plant that ever served (retired ones included)
	// must be empty, every virtual network released, and the extent
	// store back at the published-catalog baseline.
	for _, pl := range allPlants {
		res.OrphanVMs += pl.ActiveVMs()
		nets := pl.Networks()
		res.LeakedNets += nets.Size() - nets.FreeCount()
	}
	res.LeakedExtentRefs = d.Warehouse.ExtentStatsNow().Refs - baseExtentRefs

	// Audit 3 — the standing SLOs over the whole week.
	res.Objectives = hub.SLO.Evaluate(d.Kernel.Now())
	res.SLOsHold = true
	for _, ob := range res.Objectives {
		res.SLOsHold = res.SLOsHold && ob.OK
		lines = append(lines, fmt.Sprintf("slo %s ok=%v value=%.6g bound=%g samples=%d burn=%.6g",
			ob.Name, ob.OK, ob.Value, ob.Bound, ob.Samples, ob.Burn))
	}

	lines = append(lines, fmt.Sprintf(
		"requests=%d ok=%d failed=%d shed=%d scale_ups=%d scale_downs=%d retired=%d migrated=%d kills=%d restarts=%d resumed=%d orphans=%d leaked_nets=%d leaked_refs=%d end=%s",
		res.Requests, res.Succeeded, res.FailedFinal, res.Shed, res.ScaleUps, res.ScaleDowns,
		res.Retired, res.Migrated, res.ShopKills, res.ShopRestarts, res.ResumedDrains,
		res.OrphanVMs, res.LeakedNets, res.LeakedExtentRefs, d.Kernel.Now()))
	res.Fingerprint = strings.Join(lines, "\n")
	res.Journal = jnl.Records()
	res.Spans = hub.T().Spans()
	return res, nil
}
