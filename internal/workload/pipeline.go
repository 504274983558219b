package workload

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
)

// The pipeline experiment measures what the batched creation pipeline
// buys: creations per virtual second at growing batch sizes, plus the
// determinism guarantee that the pipeline machinery leaves a single
// serial request byte-identical.

// PipelineOptions tunes RunPipeline.
type PipelineOptions struct {
	// Plants is the cluster size (default 8, the paper's testbed).
	Plants int
	// MemoryMB is the workspace size (default 64).
	MemoryMB int
	// Sizes are the batch sizes to sweep (default 1, 4, 16, 64).
	Sizes []int
	// BidTimeout bounds each bidding round so concurrent rounds overlap
	// (default 1 s of virtual time).
	BidTimeout time.Duration
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Plants == 0 {
		o.Plants = 8
	}
	if o.MemoryMB == 0 {
		o.MemoryMB = 64
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1, 4, 16, 64}
	}
	if o.BidTimeout == 0 {
		o.BidTimeout = time.Second
	}
	return o
}

// BatchPoint is one batch size's measurement, taken on a fresh
// deployment.
type BatchPoint struct {
	Size         int
	OK           int
	Failed       int
	MakespanSecs float64 // first submit → last response, virtual time
	Throughput   float64 // successful creations per virtual second
	CacheHits    int64   // warehouse clone-cache hits
	CacheMisses  int64
	// AdmissionWait summarizes plant.admission_wait_secs: how long
	// creations queued for a clone slot.
	AdmissionWait stats.Summary
	// MaxInflight is the highest concurrently admitted clone count seen
	// on any single plant.
	MaxInflight int
}

// PipelineResult is the full sweep plus the determinism check.
type PipelineResult struct {
	Plants   int
	MemoryMB int
	Batches  []BatchPoint

	// DeterminismOK reports that a fresh default deployment creating
	// one VM serially and a fresh same-seed deployment creating the
	// same VM through CreateMany produced byte-identical creation logs
	// and bid records.
	DeterminismOK     bool
	SerialFingerprint string
	BatchFingerprint  string
}

// SpeedupOver reports throughput at batch size a divided by throughput
// at batch size b (0 when either point is missing or empty).
func (r *PipelineResult) SpeedupOver(a, b int) float64 {
	var ta, tb float64
	for _, bp := range r.Batches {
		if bp.Size == a {
			ta = bp.Throughput
		}
		if bp.Size == b {
			tb = bp.Throughput
		}
	}
	if tb == 0 {
		return 0
	}
	return ta / tb
}

// GateViolations lists every acceptance-gate failure (empty = pass):
// every batch completes, the clone cache stays warm after the first
// miss, batching drives plants into concurrent cloning and buys >= 3x
// throughput, and a single request stays byte-identical to the serial
// path.
func (r *PipelineResult) GateViolations() []string {
	var v violations
	for _, b := range r.Batches {
		v.check(b.Failed == 0 && b.OK == b.Size, "batch %d: ok=%d failed=%d", b.Size, b.OK, b.Failed)
		v.check(b.Throughput > 0, "batch %d: throughput = %v", b.Size, b.Throughput)
		// One golden image: the first clone misses, the rest must hit.
		v.check(b.CacheMisses == 1 && b.CacheHits == int64(b.Size-1),
			"batch %d: cache hits=%d misses=%d", b.Size, b.CacheHits, b.CacheMisses)
		// The derived per-plant cap is 3 on the default node; a batch
		// of 16 over 8 plants must actually clone concurrently.
		v.check(b.Size != 16 || b.MaxInflight >= 2,
			"batch 16: max in-flight clones = %d; batching produced no concurrency", b.MaxInflight)
	}
	v.check(r.SpeedupOver(16, 1) >= 3, "batch-16 speedup over batch-1 = %.2fx, want >= 3x", r.SpeedupOver(16, 1))
	v.check(r.DeterminismOK, "serial and single-batch creation logs diverged:\n--- serial ---\n%s\n--- batch ---\n%s",
		r.SerialFingerprint, r.BatchFingerprint)
	return v
}

// RunPipeline sweeps the batched creation pipeline over the configured
// batch sizes — a fresh deployment per size so points are independent —
// and runs the serial-vs-batch determinism check.
func RunPipeline(seed int64, opts PipelineOptions) (*PipelineResult, error) {
	opts = opts.withDefaults()
	res := &PipelineResult{Plants: opts.Plants, MemoryMB: opts.MemoryMB}
	for i, size := range opts.Sizes {
		pt, err := runBatchPoint(seed+int64(i)*1000, opts, size)
		if err != nil {
			return nil, err
		}
		res.Batches = append(res.Batches, pt)
	}
	serial, err := creationFingerprint(seed, false)
	if err != nil {
		return nil, err
	}
	batch, err := creationFingerprint(seed, true)
	if err != nil {
		return nil, err
	}
	res.SerialFingerprint = serial
	res.BatchFingerprint = batch
	res.DeterminismOK = serial == batch
	return res, nil
}

func runBatchPoint(seed int64, opts PipelineOptions, size int) (BatchPoint, error) {
	hub := telemetry.New()
	d, err := NewDeployment(Options{
		Plants:        opts.Plants,
		Seed:          seed,
		GoldenSizesMB: []int{opts.MemoryMB},
		Telemetry:     hub,
	})
	if err != nil {
		return BatchPoint{}, err
	}
	d.Shop.BidTimeout = opts.BidTimeout

	specs := make([]*core.Spec, size)
	for i := range specs {
		specs[i], err = d.WorkspaceSpec(i+1, opts.MemoryMB)
		if err != nil {
			return BatchPoint{}, err
		}
	}
	pt := BatchPoint{Size: size}
	var results []shop.BatchResult
	err = d.Run(func(p *sim.Proc) {
		start := p.Now()
		results = d.Shop.CreateMany(p, specs)
		pt.MakespanSecs = (p.Now() - start).Seconds()
	})
	if err != nil {
		return BatchPoint{}, err
	}
	for _, r := range results {
		if r.Err != nil {
			pt.Failed++
		} else {
			pt.OK++
		}
	}
	if pt.MakespanSecs > 0 {
		pt.Throughput = float64(pt.OK) / pt.MakespanSecs
	}
	pt.CacheHits, pt.CacheMisses = d.Warehouse.CacheStats()
	pt.AdmissionWait = hub.Histogram("plant.admission_wait_secs").Snapshot()
	for _, pl := range d.Plants {
		if m := pl.MaxInflightClones(); m > pt.MaxInflight {
			pt.MaxInflight = m
		}
	}
	return pt, nil
}

// creationFingerprint creates one VM on a fresh default deployment —
// serially through Shop.Create, or through the batch pipeline when
// batch is set — and digests everything observable about the creation:
// the plant-side creation log, the bidding round, and the client-facing
// outcome. Identical fingerprints mean the pipeline left the serial
// path byte-identical.
func creationFingerprint(seed int64, batch bool) (string, error) {
	d, err := NewDeployment(Options{Seed: seed})
	if err != nil {
		return "", err
	}
	spec, err := d.WorkspaceSpec(1, 64)
	if err != nil {
		return "", err
	}
	var lines []string
	err = d.Run(func(p *sim.Proc) {
		var id core.VMID
		var cerr error
		if batch {
			r := d.Shop.CreateMany(p, []*core.Spec{spec})[0]
			id, cerr = r.VMID, r.Err
		} else {
			id, _, cerr = d.Shop.Create(p, spec)
		}
		lines = append(lines, fmt.Sprintf("outcome id=%s err=%v end=%s", id, cerr, p.Now()))
	})
	if err != nil {
		return "", err
	}
	for i, pl := range d.Plants {
		for _, cs := range pl.CreationLog() {
			lines = append(lines, fmt.Sprintf(
				"plant=%d vmid=%s mem=%d mode=%v copied=%d linked=%d copy=%s resume=%s clone=%s cfg=%s total=%s matched=%d residual=%d golden=%s hit=%v",
				i, cs.VMID, cs.MemoryMB, cs.Clone.Mode, cs.Clone.CopiedBytes,
				cs.Clone.LinkedFiles, cs.Clone.CopyTime, cs.Clone.ResumeTime,
				cs.Clone.Total, cs.ConfigTime, cs.Total, cs.MatchedOps,
				cs.ResidualOps, cs.Golden, cs.PrecreateHit))
		}
	}
	for _, rec := range d.Shop.Bids() {
		plants := make([]string, 0, len(rec.Costs))
		for name := range rec.Costs {
			plants = append(plants, name)
		}
		sort.Strings(plants)
		var costs []string
		for _, name := range plants {
			costs = append(costs, fmt.Sprintf("%s=%v", name, rec.Costs[name]))
		}
		lines = append(lines, fmt.Sprintf("bid vmid=%s winner=%s costs=[%s]",
			rec.VMID, rec.Winner, strings.Join(costs, " ")))
	}
	return strings.Join(lines, "\n"), nil
}
