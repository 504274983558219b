package workload

import (
	"fmt"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/cost"
	"vmplants/internal/fault"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

// Options configures a simulated deployment.
type Options struct {
	// Plants is the number of cluster nodes, one VMPlant each
	// (paper §4.2: 8).
	Plants int
	// Seed drives all randomness.
	Seed int64
	// GoldenSizesMB selects the golden machines to publish, one In-VIGO
	// workspace image per memory size (paper: 32, 64, 256).
	GoldenSizesMB []int
	// GoldenDiskMB is each golden disk's capacity (paper: 2 GB).
	GoldenDiskMB int
	// Backend selects the golden images' production line.
	Backend string
	// PublishBlank additionally publishes a blank (no-OS) image per
	// size, the fallback source for the no-partial-matching ablation.
	PublishBlank bool
	// CostModelName picks the bidding model; the prototype used
	// "free-memory" (§4.1), the §3.4 walk-through "network+compute".
	CostModelName string
	// PlantConfig is applied to every plant (cost model is overridden
	// by CostModelName when set).
	PlantConfig plant.Config
	// ClusterParams overrides the testbed calibration (zero value =
	// cluster.DefaultParams()).
	ClusterParams *cluster.Params
	// Telemetry receives spans and metrics from the whole deployment
	// (kernel, warehouse, every plant, shop); nil disables.
	Telemetry *telemetry.Hub
	// Kernel, when set, makes the deployment join an existing simulation
	// kernel instead of creating its own — how a federation experiment
	// runs several cells in one virtual timeline. Each deployment still
	// gets its own testbed (and so its own NFS server: cells shard
	// storage bandwidth the way separate sites do).
	Kernel *sim.Kernel
	// CellName names the shop (default "shop"). In a federation every
	// cell needs a distinct shop name; plant names are qualified with it
	// too, since every testbed repeats node00, node01, ….
	CellName string
	// StandbyPlants holds the last N plants out of the shop's initial
	// rotation: built and ready, but not bidding. They are the fleet
	// controller's provisioning pool — scale-up hands them to the shop
	// one at a time. Must be less than Plants.
	StandbyPlants int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Plants == 0 {
		o.Plants = 8
	}
	if len(o.GoldenSizesMB) == 0 {
		o.GoldenSizesMB = []int{32, 64, 256}
	}
	if o.GoldenDiskMB == 0 {
		o.GoldenDiskMB = 2048
	}
	if o.Backend == "" {
		o.Backend = warehouse.BackendVMware
	}
	if o.CostModelName == "" {
		o.CostModelName = "free-memory"
	}
	if o.CellName == "" {
		o.CellName = "shop"
	}
	return o
}

// Deployment is a fully wired simulated site.
type Deployment struct {
	Opts      Options
	Kernel    *sim.Kernel
	Testbed   *cluster.Testbed
	Warehouse *warehouse.Warehouse
	Plants    []*plant.Plant
	Handles   []*shop.LocalHandle
	Shop      *shop.Shop
}

// GoldenName returns the published image name for a memory size.
func GoldenName(memMB int, backend string) string {
	return fmt.Sprintf("invigo-%s-%dmb", backend, memMB)
}

// NewDeployment builds the simulated site: testbed, warehouse with the
// golden workspace images, one plant per node, and a shop in front.
func NewDeployment(opts Options) (*Deployment, error) {
	opts = opts.withDefaults()
	k := opts.Kernel
	if k == nil {
		k = sim.NewKernel()
		k.SetTelemetry(opts.Telemetry)
	}
	params := cluster.DefaultParams()
	if opts.ClusterParams != nil {
		params = *opts.ClusterParams
	}
	tb := cluster.NewTestbed(k, opts.Plants, params, opts.Seed)
	wh := warehouse.New(tb.Warehouse)
	wh.SetTelemetry(opts.Telemetry)
	for _, mem := range opts.GoldenSizesMB {
		hw := core.HardwareSpec{Arch: "x86", MemoryMB: mem, DiskMB: opts.GoldenDiskMB}
		im, err := warehouse.BuildGolden(GoldenName(mem, opts.Backend), hw, opts.Backend, InVigoGoldenHistory())
		if err != nil {
			return nil, err
		}
		if err := wh.Publish(im); err != nil {
			return nil, err
		}
		if opts.PublishBlank {
			blank, err := warehouse.BuildGolden(fmt.Sprintf("blank-%s-%dmb", opts.Backend, mem), hw, opts.Backend, nil)
			if err != nil {
				return nil, err
			}
			if err := wh.Publish(blank); err != nil {
				return nil, err
			}
		}
	}
	model, err := cost.ByName(opts.CostModelName)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Opts: opts, Kernel: k, Testbed: tb, Warehouse: wh}
	var phs []shop.PlantHandle
	for _, node := range tb.Nodes {
		cfg := opts.PlantConfig
		cfg.CostModel = model
		cfg.Telemetry = opts.Telemetry
		pname := node.Name()
		if opts.CellName != "shop" {
			pname = opts.CellName + "/" + pname
		}
		pl := plant.New(pname, node, wh, cfg)
		h := shop.NewLocalHandle(pl)
		d.Plants = append(d.Plants, pl)
		d.Handles = append(d.Handles, h)
		phs = append(phs, h)
	}
	active := phs
	if opts.StandbyPlants > 0 && opts.StandbyPlants < len(phs) {
		active = phs[:len(phs)-opts.StandbyPlants]
	}
	d.Shop = shop.New(opts.CellName, active, opts.Seed+1)
	d.Shop.SetTelemetry(opts.Telemetry)
	return d, nil
}

// CreationRecord is one client-observed creation.
type CreationRecord struct {
	Seq        int // 1-based request sequence number
	MemoryMB   int
	CreateSecs float64 // client request → shop response (Figure 4)
	CloneSecs  float64 // PPP clone latency from the classad (Figures 5, 6)
	Plant      string
	VMID       core.VMID
	OK         bool
	Err        string
}

// WorkspaceSpec builds the creation request for one workspace instance.
func (d *Deployment) WorkspaceSpec(seq, memMB int) (*core.Spec, error) {
	user := fmt.Sprintf("user%04d", seq)
	mac := fmt.Sprintf("00:50:56:%02x:%02x:%02x", (seq>>16)&0xff, (seq>>8)&0xff, seq&0xff)
	ip := fmt.Sprintf("10.1.%d.%d", (seq/250)%250, seq%250+1)
	g, err := InVigoDAG(user, mac, ip)
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

// RunCreationSeries issues n sequential workspace creations of the
// given memory size through the shop — the paper's §4.2 experiment
// shape ("a series of requests, in sequence, for virtual machine
// creation through VMShop") — and returns one record per request.
func (d *Deployment) RunCreationSeries(n, memMB int) ([]CreationRecord, error) {
	records := make([]CreationRecord, 0, n)
	var buildErr error
	d.Kernel.Spawn("client", func(p *sim.Proc) {
		for i := 1; i <= n; i++ {
			spec, err := d.WorkspaceSpec(i, memMB)
			if err != nil {
				buildErr = err
				return
			}
			start := p.Now()
			id, ad, err := d.Shop.Create(p, spec)
			rec := CreationRecord{
				Seq:        i,
				MemoryMB:   memMB,
				CreateSecs: (p.Now() - start).Seconds(),
			}
			if err != nil {
				rec.Err = err.Error()
			} else {
				rec.OK = true
				rec.VMID = id
				rec.Plant = ad.GetString(core.AttrPlant, "")
				rec.CloneSecs = ad.GetReal(core.AttrCloneSecs, 0)
			}
			records = append(records, rec)
		}
	})
	res := d.Kernel.Run(0)
	if len(res.Stranded) != 0 {
		return nil, fmt.Errorf("workload: stranded processes: %v", res.Stranded)
	}
	if buildErr != nil {
		return nil, buildErr
	}
	return records, nil
}

// Run executes an arbitrary client body inside the deployment's kernel
// to completion.
func (d *Deployment) Run(body func(p *sim.Proc)) error {
	d.Kernel.Spawn("client", body)
	res := d.Kernel.Run(0)
	if len(res.Stranded) != 0 {
		return fmt.Errorf("workload: stranded processes: %v", res.Stranded)
	}
	return nil
}

// Succeeded counts successful records.
func Succeeded(recs []CreationRecord) int {
	n := 0
	for _, r := range recs {
		if r.OK {
			n++
		}
	}
	return n
}

// CreateTimes extracts CreateSecs of successful records.
func CreateTimes(recs []CreationRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.OK {
			out = append(out, r.CreateSecs)
		}
	}
	return out
}

// CloneTimes extracts CloneSecs of successful records.
func CloneTimes(recs []CreationRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.OK {
			out = append(out, r.CloneSecs)
		}
	}
	return out
}

// TotalVirtualTime reports how much virtual time the deployment's
// kernel has consumed.
func (d *Deployment) TotalVirtualTime() time.Duration { return d.Kernel.Now() }

// FailActions makes every plant fail DAG action op with probability
// prob, drawn from each plant's own fault stream.
func (d *Deployment) FailActions(op string, prob float64) {
	for _, pl := range d.Plants {
		pl.Faults().SetProb(pl.Name(), fault.ActionFail, op, prob)
	}
}
