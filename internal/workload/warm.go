package workload

import (
	"fmt"
	"strings"

	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// warmSpec is WorkspaceSpec with the user-environment DAG: the Figure 3
// personalization plus the user's application stack (InVigoUserEnvDAG),
// so residual configuration dominates a cold creation and a derived
// checkpoint has something substantial to save.
func warmSpec(d *Deployment, seq, memMB int) (*core.Spec, error) {
	user := fmt.Sprintf("user%04d", seq)
	mac := fmt.Sprintf("00:50:56:%02x:%02x:%02x", (seq>>16)&0xff, (seq>>8)&0xff, seq&0xff)
	ip := fmt.Sprintf("10.1.%d.%d", (seq/250)%250, seq%250+1)
	g, err := InVigoUserEnvDAG(user, mac, ip)
	if err != nil {
		return nil, err
	}
	return &core.Spec{
		Name:     "workspace-" + user,
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: memMB, DiskMB: d.Opts.GoldenDiskMB},
		Domain:   "ufl.edu",
		Backend:  d.Opts.Backend,
		Graph:    g,
	}, nil
}

// The warm experiment measures what the warehouse learning loop buys:
// a Zipf-skewed stream of workspace requests (popular users recur)
// replayed through a deployment with publish-back enabled. Early
// requests pay full residual configuration and checkpoint derived
// golden images back to the warehouse; later requests for the same
// configurations clone those checkpoints instead of reconfiguring, so
// mean creation time drops as the warehouse warms — within a byte
// budget that exercises utility-based retirement.

// WarmOptions tunes RunWarm.
type WarmOptions struct {
	// Plants is the cluster size (default 4).
	Plants int
	// MemoryMB is the workspace size (default 64).
	MemoryMB int
	// Requests is the stream length (default 48).
	Requests int
	// Users is the user-catalog size the Zipf draw ranges over
	// (default 12). Requests from the same user carry an identical
	// personalization DAG, so repeats can match a derived image fully.
	Users int
	// ZipfS is the skew exponent (default 1.2).
	ZipfS float64
	// DerivedBudgetMB is the warehouse byte budget beyond the seed
	// images, i.e. room for derived checkpoints (default 600 — eight
	// 64 MB-class checkpoints for a twelve-user catalog, so the tail
	// users' images churn through utility-based retirement while the
	// popular users' stay resident).
	DerivedBudgetMB int
	// Threshold is the publish-back residual threshold (default:
	// the plant's own default).
	Threshold int
}

func (o WarmOptions) withDefaults() WarmOptions {
	if o.Plants == 0 {
		o.Plants = 4
	}
	if o.MemoryMB == 0 {
		o.MemoryMB = 64
	}
	if o.Requests == 0 {
		o.Requests = 48
	}
	if o.Users == 0 {
		o.Users = 12
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.2
	}
	if o.DerivedBudgetMB == 0 {
		o.DerivedBudgetMB = 600
	}
	return o
}

// SmokeWarmOptions is the scaled-down CI variant.
func SmokeWarmOptions() WarmOptions {
	return WarmOptions{Plants: 2, Requests: 24, Users: 8, DerivedBudgetMB: 375}
}

// WarmRecord is one request's outcome in the stream.
type WarmRecord struct {
	Seq        int
	User       int // 0-based Zipf rank
	OK         bool
	CreateSecs float64
	Golden     string // image the creation cloned
	MatchedOps int
}

// WarmResult is the full learning-loop measurement.
type WarmResult struct {
	Requests int
	Users    int
	Records  []WarmRecord

	ColdMean    float64 // mean creation secs, first half of the stream
	WarmMean    float64 // mean creation secs, second half
	Improvement float64 // 1 - WarmMean/ColdMean

	PublishBacks  int64 // plant.publish_backs
	DerivedImages int   // derived images still published at the end
	Retirements   int64 // derived images evicted by capacity pressure
	BytesUsed     int64
	Capacity      int64
	SeedsIntact   bool // every installer-seeded image survived
	Failed        int

	// Extent dedup: the content-addressed store's end-of-run footprint.
	// SavedBytes is logical minus physical — what sharing byte-identical
	// extents across seed and derived publications kept off the volume.
	ExtentLogicalBytes  int64
	ExtentPhysicalBytes int64
	ExtentSavedBytes    int64

	// Fingerprint digests every observable of the run; equal
	// fingerprints across same-seed reruns mean the loop (including
	// its off-critical-path publish processes) is deterministic.
	Fingerprint string
}

// Report renders the result as printable lines.
func (r *WarmResult) Report() []string {
	return []string{
		fmt.Sprintf("requests: %d over %d users (Zipf), %d failed", r.Requests, r.Users, r.Failed),
		fmt.Sprintf("cold-half mean creation: %6.1f s", r.ColdMean),
		fmt.Sprintf("warm-half mean creation: %6.1f s", r.WarmMean),
		fmt.Sprintf("improvement:             %6.1f %%", 100*r.Improvement),
		fmt.Sprintf("publish-backs: %d, derived images: %d, retirements: %d",
			r.PublishBacks, r.DerivedImages, r.Retirements),
		fmt.Sprintf("warehouse bytes: %d of %d budget (seeds intact: %v)",
			r.BytesUsed, r.Capacity, r.SeedsIntact),
		fmt.Sprintf("extent store: %d MB logical → %d MB physical (%d MB deduplicated)",
			r.ExtentLogicalBytes>>20, r.ExtentPhysicalBytes>>20, r.ExtentSavedBytes>>20),
	}
}

// GateViolations lists every acceptance-gate failure (empty = pass):
// the warm half creates >= 30% faster than the cold half through
// publish-back, within the byte budget, retiring only derived images,
// with extent dedup engaged.
func (r *WarmResult) GateViolations() []string {
	var v violations
	v.check(r.Failed == 0, "%d requests failed", r.Failed)
	v.check(r.Improvement >= 0.30, "improvement = %.1f%%, want >= 30%%", 100*r.Improvement)
	v.check(r.PublishBacks > 0 && r.DerivedImages > 0,
		"publish-backs = %d, derived images = %d", r.PublishBacks, r.DerivedImages)
	v.check(r.Retirements > 0, "capacity pressure retired nothing")
	v.check(r.BytesUsed <= r.Capacity, "bytes used %d exceed the %d budget", r.BytesUsed, r.Capacity)
	v.check(r.SeedsIntact, "a seed image was evicted")
	v.check(r.ExtentSavedBytes > 0,
		"saved no extent bytes (logical %d, physical %d): content-addressed dedup is not engaging",
		r.ExtentLogicalBytes, r.ExtentPhysicalBytes)
	return v
}

// RunWarm replays the Zipf stream through a fresh deployment with
// publish-back enabled and a capacity budget sized to force
// retirements. Each workspace is destroyed right after creation — the
// In-VIGO session ends — so derived images are unreferenced between
// requests and retirement always has candidates.
func RunWarm(seed int64, opts WarmOptions) (*WarmResult, error) {
	opts = opts.withDefaults()
	hub := telemetry.New()
	d, err := NewDeployment(Options{
		Plants:        opts.Plants,
		Seed:          seed,
		GoldenSizesMB: []int{opts.MemoryMB},
		Telemetry:     hub,
		PlantConfig: plant.Config{
			PublishBack:          true,
			PublishBackThreshold: opts.Threshold,
		},
	})
	if err != nil {
		return nil, err
	}
	seeds := d.Warehouse.List()
	capacity := d.Warehouse.BytesUsed() + int64(opts.DerivedBudgetMB)<<20
	d.Warehouse.SetCapacity(capacity)

	// The user stream is drawn up front from a private generator, so
	// the request sequence depends only on the seed. Every user's first
	// login lands in the cold half — the catalog sweep — and the
	// steady-state tail is a Zipf draw over the same catalog, so the
	// warm half measures what the now-populated warehouse buys.
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

	res := &WarmResult{Requests: opts.Requests, Users: opts.Users, Capacity: capacity}
	var buildErr error
	err = d.Run(func(p *sim.Proc) {
		for i, user := range users {
			// Same user ⇒ same personalization DAG, so a repeat can
			// fully match that user's derived checkpoint.
			spec, err := warmSpec(d, user+1, opts.MemoryMB)
			if err != nil {
				buildErr = err
				return
			}
			start := p.Now()
			id, ad, err := d.Shop.Create(p, spec)
			rec := WarmRecord{Seq: i + 1, User: user, CreateSecs: (p.Now() - start).Seconds()}
			if err == nil {
				rec.OK = true
				rec.Golden = ad.GetString(core.AttrGoldenImage, "")
				rec.MatchedOps = int(ad.GetInt(core.AttrMatchedOps, 0))
				// The workspace session ends: collect the VM so the
				// images it referenced become retirable again.
				if derr := d.Shop.Destroy(p, id); derr != nil {
					buildErr = derr
					return
				}
			}
			res.Records = append(res.Records, rec)
		}
	})
	if err != nil {
		return nil, err
	}
	if buildErr != nil {
		return nil, buildErr
	}

	half := len(res.Records) / 2
	res.ColdMean = meanCreateSecs(res.Records[:half])
	res.WarmMean = meanCreateSecs(res.Records[half:])
	if res.ColdMean > 0 {
		res.Improvement = 1 - res.WarmMean/res.ColdMean
	}
	for _, r := range res.Records {
		if !r.OK {
			res.Failed++
		}
	}
	res.PublishBacks = hub.Counter("plant.publish_backs").Value()
	res.DerivedImages = d.Warehouse.DerivedCount()
	res.Retirements = d.Warehouse.Retirements()
	res.BytesUsed = d.Warehouse.BytesUsed()
	ext := d.Warehouse.ExtentStatsNow()
	res.ExtentLogicalBytes = ext.LogicalBytes
	res.ExtentPhysicalBytes = ext.PhysicalBytes
	res.ExtentSavedBytes = ext.SavedBytes()
	res.SeedsIntact = true
	for _, s := range seeds {
		if _, ok := d.Warehouse.Lookup(s); !ok {
			res.SeedsIntact = false
		}
	}

	var lines []string
	for _, r := range res.Records {
		lines = append(lines, fmt.Sprintf("req=%d user=%d ok=%v secs=%.6f golden=%s matched=%d",
			r.Seq, r.User, r.OK, r.CreateSecs, r.Golden, r.MatchedOps))
	}
	lines = append(lines, fmt.Sprintf("end images=[%s] bytes=%d retirements=%d publishes=%d",
		strings.Join(d.Warehouse.List(), " "), res.BytesUsed, res.Retirements, res.PublishBacks))
	res.Fingerprint = strings.Join(lines, "\n")
	return res, nil
}

func meanCreateSecs(recs []WarmRecord) float64 {
	var sum float64
	n := 0
	for _, r := range recs {
		if r.OK {
			sum += r.CreateSecs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
