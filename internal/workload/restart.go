package workload

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
)

// The restart experiment is the kill-9 gate for the journaled control
// plane: shop daemons are killed at the worst possible instants — after
// the creation intent is durable but before dispatch, and after the
// plant built the VM but before the commit — plants crash and recover
// mid-run, and the warehouse daemon restarts with an image in
// quarantine. The run passes only if every creation is exactly-once
// (zero lost, zero duplicated), the quarantine survives the warehouse
// restart, and two runs with the same seed produce byte-identical
// fingerprints.

// RestartOptions configures a restart run.
type RestartOptions struct {
	Plants   int // default 4
	Requests int // default 24
	MemoryMB int // default 64
	// KillEvery arms a shop kill before every KillEvery-th request,
	// alternating between the "intent" and "commit" kill points
	// (default 6).
	KillEvery int
	// RestartAfter is how long the supervisor waits before restarting a
	// killed shop daemon (default 5 s virtual).
	RestartAfter time.Duration
	// ClientRetries bounds request re-submissions (default 8).
	ClientRetries int
}

func (o RestartOptions) withDefaults() RestartOptions {
	if o.Plants == 0 {
		o.Plants = 4
	}
	if o.Requests == 0 {
		o.Requests = 24
	}
	if o.MemoryMB == 0 {
		o.MemoryMB = 64
	}
	if o.KillEvery == 0 {
		o.KillEvery = 6
	}
	if o.RestartAfter == 0 {
		o.RestartAfter = 5 * time.Second
	}
	if o.ClientRetries == 0 {
		o.ClientRetries = 8
	}
	return o
}

// RestartResult reports what a restart run proved.
type RestartResult struct {
	Requests  int
	Succeeded int
	// ShopKills / ShopRestarts count daemon deaths and revivals.
	ShopKills    int64
	ShopRestarts int64
	// Redriven / Reconciled / Deduped are the exactly-once machinery's
	// counters: intents re-driven from the journal, intents found
	// already built, and client retries answered from the dedupe index.
	Redriven   int64
	Reconciled int64
	Deduped    int64
	// Lost counts acknowledged creations whose VM cannot be found;
	// Duplicated counts VMs on plants beyond the acknowledged set. Both
	// must be zero.
	Lost       int
	Duplicated int
	// RoutesFinal is how many routes the final kill→restart rebuilt
	// purely from the journal.
	RoutesFinal int
	// QuarantineSurvived is whether the quarantined image stayed out of
	// service across the warehouse daemon restart.
	QuarantineSurvived bool
	PlantCrashes       int64
	PlantRecoveries    int64
	// TornTails counts journal records truncated during replays (zero:
	// kills land at sync boundaries, so the log is always clean).
	TornTails int64
	// JournalRecords is the shop journal's final record count.
	JournalRecords int
	// Fingerprint digests every outcome; two runs with the same seed
	// must produce identical fingerprints.
	Fingerprint string
}

// RunRestart drives a creation series through a deployment whose
// control-plane daemons are journaled, killing and restarting them
// mid-flight, and audits exactly-once semantics at the end.
func RunRestart(seed int64, opts RestartOptions) (*RestartResult, error) {
	opts = opts.withDefaults()
	hub := telemetry.New()

	reg := fault.NewRegistry(seed + 104729)
	reg.SetTelemetry(hub)

	d, err := NewDeployment(Options{
		Plants:      opts.Plants,
		Seed:        seed,
		Telemetry:   hub,
		PlantConfig: plant.Config{Faults: reg},
	})
	if err != nil {
		return nil, err
	}
	d.Shop.Faults = reg

	// Journals: the shop's on its own dedicated log volume, each
	// plant's on its node's local disk, the warehouse's on the shared
	// warehouse volume (which backfills the already-published catalog).
	logVol := storage.NewVolume("shop-log", storage.NewDevice("shop-log-disk", 64<<20, 100*time.Microsecond))
	jnl := journal.Open(logVol, "journal/shop")
	jnl.SetTelemetry(hub)
	d.Shop.SetJournal(jnl)
	for i, pl := range d.Plants {
		pl.SetJournal(journal.Open(d.Testbed.Nodes[i].LocalDisk(), "journal/"+pl.Name()))
	}
	d.Warehouse.SetJournal(journal.Open(d.Testbed.Warehouse, "journal/warehouse"))

	res := &RestartResult{Requests: opts.Requests}
	var lines []string // fingerprint material
	created := make(map[string]core.VMID)
	var order []string
	var runErr error
	err = d.Run(func(p *sim.Proc) {
		crashPlantAt := opts.Requests / 2
		quarantineAt := 2 * opts.Requests / 3
		for i := 1; i <= opts.Requests; i++ {
			// Arm a kill-9 at the worst instants: odd kills die with the
			// intent durable but undispatched, even kills die with the VM
			// built but uncommitted.
			if opts.KillEvery > 0 && i%opts.KillEvery == 0 {
				op := "intent"
				if (i/opts.KillEvery)%2 == 0 {
					op = "commit"
				}
				reg.Arm("shop", fault.DaemonKill, op, 1)
				lines = append(lines, fmt.Sprintf("armed kill at %s before req %d", op, i))
			}
			if i == crashPlantAt && len(d.Plants) > 0 {
				d.Plants[0].Crash()
				lines = append(lines, fmt.Sprintf("plant %s crashed before req %d", d.Plants[0].Name(), i))
			}
			if i == quarantineAt {
				name := GoldenName(256, d.Opts.Backend)
				d.Warehouse.Quarantine(name, "scrub: checksum mismatch (injected)")
				st := d.Warehouse.Restart()
				res.QuarantineSurvived = d.Warehouse.IsQuarantined(name)
				lines = append(lines, fmt.Sprintf("warehouse restart before req %d: restored=%d mismatch=%d survived=%v",
					i, st.QuarantineRestored, st.CatalogMismatch, res.QuarantineSurvived))
			}

			spec, err := d.WorkspaceSpec(i, opts.MemoryMB)
			if err != nil {
				runErr = err
				return
			}
			spec.RequestID = fmt.Sprintf("req-%04d", i)
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
				if errors.Is(cerr, shop.ErrShopDown) {
					// Supervisor: wait out the death, restart the daemon
					// from its journal, then re-submit under the same
					// request ID — the dedupe index absorbs the retry.
					p.Sleep(opts.RestartAfter)
					st, rerr := d.Shop.Restart(p)
					if rerr != nil {
						runErr = rerr
						return
					}
					lines = append(lines, fmt.Sprintf("shop restart: replayed=%d routes=%d reconciled=%d redriven=%d aborted=%d",
						st.Replayed, st.Routes, st.Reconciled, st.Redriven, st.Aborted))
					res.TornTails += int64(st.TornTails)
					continue
				}
				p.Sleep(2 * time.Second)
			}
			if id == "" {
				continue
			}
			created[spec.RequestID] = id
			order = append(order, spec.RequestID)
			res.Succeeded++
			lines = append(lines, fmt.Sprintf("req %d ok %s route=%s", i, id, d.Shop.RouteOf(id)))
		}

		// The crashed plant's daemon comes back; its journal replay
		// cross-checks the host scan.
		for _, pl := range d.Plants {
			pl.Recover(p)
		}

		// Final kill→restart with nothing in flight: the route table must
		// come back purely from the journal, one route per live VM.
		d.Shop.Kill()
		st, rerr := d.Shop.Restart(p)
		if rerr != nil {
			runErr = rerr
			return
		}
		res.RoutesFinal = st.Routes
		res.TornTails += int64(st.TornTails)
		lines = append(lines, fmt.Sprintf("final restart: replayed=%d routes=%d", st.Replayed, st.Routes))

		// Exactly-once audit, half one: every acknowledged creation is
		// queryable through the restarted shop.
		for _, req := range order {
			if _, qerr := d.Shop.Query(p, created[req]); qerr != nil {
				res.Lost++
				lines = append(lines, fmt.Sprintf("LOST %s (%s): %v", created[req], req, qerr))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}

	// Exactly-once audit, half two: the plants hold exactly one VM per
	// acknowledged request — no duplicates from re-driven intents, and
	// no two requests answered with the same VM.
	unique := make(map[core.VMID]bool)
	for _, id := range created {
		unique[id] = true
	}
	live := 0
	for _, pl := range d.Plants {
		live += pl.ActiveVMs()
	}
	res.Duplicated = live - len(unique)
	if len(unique) < len(created) {
		res.Duplicated += len(created) - len(unique) // two requests share a VM
	}

	res.ShopKills = hub.Counter("shop.crashes").Value()
	res.ShopRestarts = hub.Counter("shop.restarts").Value()
	res.Redriven = hub.Counter("shop.redriven_creates").Value()
	res.Reconciled = hub.Counter("shop.reconciled_creates").Value()
	res.Deduped = hub.Counter("shop.deduped_creates").Value()
	res.PlantCrashes = hub.Counter("plant.crashes").Value()
	res.PlantRecoveries = hub.Counter("plant.recoveries").Value()
	res.JournalRecords = len(jnl.Records())

	lines = append(lines, reg.Summary()...)
	lines = append(lines, fmt.Sprintf("kills=%d restarts=%d redriven=%d reconciled=%d deduped=%d lost=%d dup=%d torn=%d records=%d",
		res.ShopKills, res.ShopRestarts, res.Redriven, res.Reconciled, res.Deduped,
		res.Lost, res.Duplicated, res.TornTails, res.JournalRecords))
	res.Fingerprint = strings.Join(lines, "\n")
	return res, nil
}

// GateViolations lists every acceptance-gate failure (empty = pass):
// kills landed and were repaired from the journal, every creation is
// exactly-once, routes and the quarantine survive restarts, and the
// plant crash/recover leg ran.
func (r *RestartResult) GateViolations() []string {
	var v violations
	v.check(r.Succeeded == r.Requests, "succeeded %d of %d requests", r.Succeeded, r.Requests)
	v.check(r.Lost == 0, "%d acknowledged creations lost", r.Lost)
	v.check(r.Duplicated == 0, "%d duplicated VMs", r.Duplicated)
	v.check(r.ShopKills > 0, "no shop kills fired; the run exercised nothing")
	v.check(r.Redriven > 0 || r.Reconciled > 0,
		"kills fired but no intent was re-driven or reconciled (kills=%d)", r.ShopKills)
	v.check(r.QuarantineSurvived, "quarantine did not survive the warehouse restart")
	v.check(r.RoutesFinal == r.Succeeded, "final restart rebuilt %d routes, want %d", r.RoutesFinal, r.Succeeded)
	v.check(r.TornTails == 0, "%d torn tails in a sync-boundary kill schedule", r.TornTails)
	v.check(r.PlantCrashes > 0 && r.PlantRecoveries > 0,
		"plant crash/recover leg did not run (crashes=%d recoveries=%d)", r.PlantCrashes, r.PlantRecoveries)
	return v
}

// Report renders the run as printable lines.
func (r *RestartResult) Report() []string {
	return []string{
		fmt.Sprintf("requests:            %d", r.Requests),
		fmt.Sprintf("succeeded:           %d (%.0f%%)", r.Succeeded, 100*float64(r.Succeeded)/float64(r.Requests)),
		fmt.Sprintf("shop kills:          %d (restarts %d)", r.ShopKills, r.ShopRestarts),
		fmt.Sprintf("intents re-driven:   %d", r.Redriven),
		fmt.Sprintf("intents reconciled:  %d", r.Reconciled),
		fmt.Sprintf("retries deduped:     %d", r.Deduped),
		fmt.Sprintf("plant crashes:       %d (recoveries %d)", r.PlantCrashes, r.PlantRecoveries),
		fmt.Sprintf("quarantine survived: %v", r.QuarantineSurvived),
		fmt.Sprintf("routes (final):      %d", r.RoutesFinal),
		fmt.Sprintf("journal records:     %d (torn tails %d)", r.JournalRecords, r.TornTails),
		fmt.Sprintf("lost creations:      %d", r.Lost),
		fmt.Sprintf("duplicated VMs:      %d", r.Duplicated),
	}
}
