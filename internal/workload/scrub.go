package workload

import (
	"fmt"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
)

// The scrub experiment proves the end-to-end integrity invariant under
// attack: a Zipf workspace stream (publish-back on, so the image DAG
// grows derived checkpoints mid-run) runs while corrupt-extent faults
// scramble warehouse state on clone reads and scrub reads, and
// torn-write faults corrupt publications as they land. The system must
// never resume a creation from unverified state, must quarantine every
// detected corruption, and must heal itself: seeds from the replica
// device, derived images by DAG replay against their parent. The
// end-of-run audit — every image verifies clean, nothing left in
// quarantine, seeds intact — is the zero-silent-corruption proof:
// corrupted checksums persist until repaired, and repairs only follow
// detection, so a clean end state means nothing slipped through.

// ScrubOptions tunes RunScrub.
type ScrubOptions struct {
	// Plants is the cluster size (default 4).
	Plants int
	// MemoryMB is the workspace size (default 64).
	MemoryMB int
	// Requests is the stream length (default 40).
	Requests int
	// Users is the Zipf catalog size (default 10).
	Users int
	// ZipfS is the skew exponent (default 1.2).
	ZipfS float64
	// DerivedBudgetMB is warehouse room for derived checkpoints beyond
	// the seeds (default 600).
	DerivedBudgetMB int
	// Threshold is the publish-back residual threshold (default: the
	// plant's own default).
	Threshold int
	// CorruptProb is the corrupt-extent probability per verifying clone
	// read, i.e. per clone-cache fill (default 0.05; the acceptance
	// floor is 0.01).
	CorruptProb float64
	// ScrubCorruptProb is the corrupt-extent probability per image per
	// scrub pass — bit rot the scrubber itself discovers (default 0.02).
	ScrubCorruptProb float64
	// TornWriteProb corrupts a publication as it lands; the damage is
	// latent until the next clone miss or scrub read (default 0.15 —
	// publications are rare, one per distinct configuration).
	TornWriteProb float64
	// ScrubInterval is the background scrubber's cadence (default 30 s
	// of virtual time).
	ScrubInterval time.Duration
	// CacheSize shrinks the hot clone cache so opens miss — and
	// therefore verify — often (default 2).
	CacheSize int
	// ClientRetries bounds re-submissions of a request that failed
	// while the matching images sat in quarantine (default 10).
	ClientRetries int
	// RetryDelay is the client's backoff between re-submissions; it
	// must exceed ScrubInterval so a repair can land in between
	// (default 45 s).
	RetryDelay time.Duration
}

func (o ScrubOptions) withDefaults() ScrubOptions {
	if o.Plants == 0 {
		o.Plants = 4
	}
	if o.MemoryMB == 0 {
		o.MemoryMB = 64
	}
	if o.Requests == 0 {
		o.Requests = 40
	}
	if o.Users == 0 {
		o.Users = 10
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.2
	}
	if o.DerivedBudgetMB == 0 {
		o.DerivedBudgetMB = 600
	}
	if o.CorruptProb == 0 {
		o.CorruptProb = 0.05
	}
	if o.ScrubCorruptProb == 0 {
		o.ScrubCorruptProb = 0.02
	}
	if o.TornWriteProb == 0 {
		o.TornWriteProb = 0.15
	}
	if o.ScrubInterval == 0 {
		o.ScrubInterval = 30 * time.Second
	}
	if o.CacheSize == 0 {
		o.CacheSize = 2
	}
	if o.ClientRetries == 0 {
		o.ClientRetries = 10
	}
	if o.RetryDelay == 0 {
		o.RetryDelay = 45 * time.Second
	}
	return o
}

// SmokeScrubOptions is the scaled-down CI variant.
func SmokeScrubOptions() ScrubOptions {
	return ScrubOptions{Plants: 2, Requests: 20, Users: 6, DerivedBudgetMB: 375}
}

// ScrubResult is the chaos-integrity measurement.
type ScrubResult struct {
	Requests      int
	Succeeded     int
	Failed        int
	ClientRetries int

	VerifiedClones int64 // plant.verified_clones
	Injected       int64 // corrupt-extent + torn-write injections
	Detected       int64 // warehouse.corruptions_detected
	Quarantines    int64
	Repairs        int64
	RepairBytes    int64
	Retirements    int64 // scrub retirements of unrepairable images
	ScrubPasses    int64
	ScrubVerified  int64

	// End-of-run audit.
	InQuarantine int      // images still quarantined
	DirtyAtEnd   []string // images failing the final deep verify
	SeedsIntact  bool

	Injections map[string]int64
	// Fingerprint digests every observable; equal fingerprints across
	// same-seed reruns prove the whole detect/quarantine/repair loop is
	// deterministic.
	Fingerprint string
}

// Report renders the result as printable lines.
func (r *ScrubResult) Report() []string {
	return []string{
		fmt.Sprintf("requests:          %d (%d failed, %d client retries)", r.Requests, r.Failed, r.ClientRetries),
		fmt.Sprintf("verified clones:   %d (every completed creation resumed from verified state)", r.VerifiedClones),
		fmt.Sprintf("corruptions:       %d injected, %d detected", r.Injected, r.Detected),
		fmt.Sprintf("quarantines:       %d (repairs %d, retired %d, still quarantined %d)",
			r.Quarantines, r.Repairs, r.Retirements, r.InQuarantine),
		fmt.Sprintf("repair bytes:      %d", r.RepairBytes),
		fmt.Sprintf("scrub passes:      %d (%d clean verifications)", r.ScrubPasses, r.ScrubVerified),
		fmt.Sprintf("end audit:         dirty=%d seeds intact=%v", len(r.DirtyAtEnd), r.SeedsIntact),
	}
}

// GateViolations lists every acceptance-gate failure (empty = pass):
// a violation means the integrity invariant was broken or the run
// attacked nothing.
func (r *ScrubResult) GateViolations() []string {
	var v violations
	v.check(r.Failed == 0, "%d of %d requests never succeeded", r.Failed, r.Requests)
	v.check(r.Injected > 0, "no corruption was injected; the run proves nothing")
	v.check(r.Injected == 0 || r.Detected > 0, "%d corruptions injected but none detected", r.Injected)
	v.check(r.Detected == 0 || r.Quarantines > 0, "corruption detected but nothing quarantined")
	v.check(r.Repairs > 0, "nothing was ever repaired")
	v.check(int64(r.Succeeded) <= r.VerifiedClones,
		"%d creations succeeded but only %d clones verified — a creation resumed unverified state",
		r.Succeeded, r.VerifiedClones)
	v.check(r.InQuarantine == 0, "%d images leaked in quarantine at end of run", r.InQuarantine)
	v.check(len(r.DirtyAtEnd) == 0,
		"silent corruption — %v failed the final deep verify without ever being detected", r.DirtyAtEnd)
	v.check(r.SeedsIntact, "a seed image was lost or left quarantined")
	return v
}

// RunScrub replays the Zipf stream under corruption injection with the
// background scrubber healing the warehouse, then audits the end state.
func RunScrub(seed int64, opts ScrubOptions) (*ScrubResult, error) {
	opts = opts.withDefaults()
	hub := telemetry.New()

	reg := fault.NewRegistry(seed + 104729)
	reg.SetTelemetry(hub)

	d, err := NewDeployment(Options{
		Plants:        opts.Plants,
		Seed:          seed,
		GoldenSizesMB: []int{opts.MemoryMB},
		Telemetry:     hub,
		PlantConfig: plant.Config{
			Faults:               reg,
			PublishBack:          true,
			PublishBackThreshold: opts.Threshold,
		},
	})
	if err != nil {
		return nil, err
	}
	seeds := d.Warehouse.List()
	d.Warehouse.SetCapacity(d.Warehouse.BytesUsed() + int64(opts.DerivedBudgetMB)<<20)
	d.Warehouse.SetCloneCacheSize(opts.CacheSize)

	// The replica device: the site's second copy of the installer-laid
	// seed extents, and the repair source for seed corruption. Mirrored
	// before any fault rule arms, so the replica is clean by
	// construction.
	replica := storage.NewVolume("replica", storage.NewDevice("replica-disk", 40<<20, 2*time.Millisecond))
	d.Warehouse.SetReplica(replica)
	d.Warehouse.SetFaults(reg)
	reg.SetProb("warehouse", fault.CorruptExtent, "clone", opts.CorruptProb)
	reg.SetProb("warehouse", fault.CorruptExtent, "scrub", opts.ScrubCorruptProb)
	reg.SetProb("warehouse", fault.TornWrite, "publish", opts.TornWriteProb)

	// Zipf user stream, drawn up front: catalog sweep, then skewed tail.
	rng := sim.NewRNG(seed*31 + 7)
	users := make([]int, opts.Requests)
	sweep := opts.Users
	if sweep > opts.Requests/2 {
		sweep = opts.Requests / 2
	}
	for i := 0; i < sweep; i++ {
		users[i] = i
	}
	for i := sweep; i < opts.Requests; i++ {
		users[i] = rng.Zipf(opts.Users, opts.ZipfS)
	}

	res := &ScrubResult{Requests: opts.Requests}
	var lines []string
	scrubber := d.Warehouse.NewScrubber(opts.ScrubInterval)
	var runErr error
	err = d.Run(func(p *sim.Proc) {
		scrubber.Start(p.Kernel())
		for i, user := range users {
			spec, err := warmSpec(d, user+1, opts.MemoryMB)
			if err != nil {
				runErr = err
				return
			}
			var id core.VMID
			ok := false
			for try := 0; ; try++ {
				cid, ad, cerr := d.Shop.Create(p, spec)
				if cerr == nil {
					id = cid
					ok = true
					lines = append(lines, fmt.Sprintf("req=%d user=%d ok golden=%s tries=%d t=%.3f",
						i+1, user, ad.GetString(core.AttrGoldenImage, ""), try+1, p.Now().Seconds()))
					break
				}
				if try >= opts.ClientRetries {
					lines = append(lines, fmt.Sprintf("req=%d user=%d FAILED %v", i+1, user, cerr))
					break
				}
				// The matching images may all sit in quarantine; back
				// off past a scrub interval so a repair can land.
				res.ClientRetries++
				p.Sleep(opts.RetryDelay)
			}
			if !ok {
				res.Failed++
				continue
			}
			res.Succeeded++
			// The workspace session ends immediately so derived images
			// stay unreferenced (retirable) between requests.
			if derr := d.Shop.Destroy(p, id); derr != nil {
				runErr = derr
				return
			}
		}
		// Drain: off-critical-path publish-backs finish and the
		// background scrubber works through any remaining quarantine.
		p.Sleep(20 * opts.ScrubInterval)
		// Final synchronous passes: at least one, so a torn write still
		// latent from a late publish-back is detected and healed before
		// the audit; extras settle multi-pass repairs.
		d.Warehouse.ScrubPass(p)
		for i := 0; i < 4 && len(d.Warehouse.Quarantined()) > 0; i++ {
			d.Warehouse.ScrubPass(p)
		}
		scrubber.Stop()
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}

	res.VerifiedClones = hub.Counter("plant.verified_clones").Value()
	res.Injected = reg.Total(fault.CorruptExtent) + reg.Total(fault.TornWrite)
	stats := d.Warehouse.ScrubStatsNow()
	res.Detected = stats.Corruptions
	res.Quarantines = stats.Quarantines
	res.Repairs = stats.Repairs
	res.RepairBytes = stats.RepairBytes
	res.Retirements = stats.Retirements
	res.ScrubPasses = stats.Passes
	res.ScrubVerified = stats.Verified
	res.InQuarantine = stats.InQuarantine
	res.DirtyAtEnd = d.Warehouse.DirtyImages()
	res.Injections = reg.Counts()
	res.SeedsIntact = true
	for _, s := range seeds {
		if _, ok := d.Warehouse.Lookup(s); !ok || d.Warehouse.IsQuarantined(s) {
			res.SeedsIntact = false
		}
	}

	lines = append(lines, reg.Summary()...)
	lines = append(lines, fmt.Sprintf("verified=%d detected=%d quarantines=%d repairs=%d repair_bytes=%d retired=%d passes=%d",
		res.VerifiedClones, res.Detected, res.Quarantines, res.Repairs, res.RepairBytes, res.Retirements, res.ScrubPasses))
	lines = append(lines, fmt.Sprintf("end images=[%s] quarantine=[%s] dirty=[%s]",
		strings.Join(d.Warehouse.List(), " "),
		strings.Join(d.Warehouse.Quarantined(), " "),
		strings.Join(res.DirtyAtEnd, " ")))
	res.Fingerprint = strings.Join(lines, "\n")
	return res, nil
}
