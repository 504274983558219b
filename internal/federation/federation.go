// Package federation coordinates a multi-cell VMPlants deployment: one
// shop + warehouse per cell, published in a shared service registry and
// wired into each other's peer lists for hierarchical bidding.
//
// The coordinator owns the federation's background liveness machinery,
// all under the simulation clock:
//
//   - Heartbeat: every cell's "vmshop" registry binding is re-published
//     on a short lease. A cell that dies (Suspend, or a daemon kill)
//     stops heartbeating and its lease lapses, so peers' pre-call lease
//     checks fail fast instead of burning call timeouts — a vanished
//     cell drops out of bid rounds within one lease TTL.
//   - Catalog gossip: on a slower tick, every live cell's derived-image
//     catalog is exchanged with every other live cell
//     (warehouse.ExportCatalog/ImportCatalog), so a configuration
//     checkpointed in one cell becomes clone-warm federation-wide, and
//     a quarantine verdict raised anywhere poisons the image
//     everywhere. Entries carry the descriptor bytes each image was
//     encoded to at publish, so a round over unchanged catalogs
//     encodes nothing.
//
// The tick loop re-schedules itself forever; simulations that run to
// quiescence must Stop it before the last foreground process exits
// (same contract as warehouse.Scrubber).
package federation

import (
	"fmt"
	"sort"
	"time"

	"vmplants/internal/registry"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

// Defaults for the liveness machinery. The lease outlives two
// heartbeats, so a single delayed tick never fails over a healthy cell.
const (
	DefaultLeaseTTL       = 5 * time.Second
	DefaultHeartbeatEvery = 2 * time.Second
	DefaultGossipEvery    = 10 * time.Second
)

// Service is the registry service type federation cells publish under.
const Service = "vmshop"

// Cell is one federated site: a shop and the warehouse behind it.
type Cell struct {
	Name      string
	Shop      *shop.Shop
	Warehouse *warehouse.Warehouse
	// Meta is published on the cell's registry binding (site,
	// architecture, …).
	Meta map[string]string
}

// Federation wires cells together and runs their liveness loop.
type Federation struct {
	Registry *registry.Registry
	// LeaseTTL bounds how stale a dead cell's binding can look.
	LeaseTTL time.Duration
	// HeartbeatEvery is the re-publish (and registry sweep) period.
	HeartbeatEvery time.Duration
	// GossipEvery is the catalog-exchange period.
	GossipEvery time.Duration

	cells     []*Cell
	suspended map[string]bool
	stopped   bool
	proc      *sim.Proc

	mHeartbeats *telemetry.Counter
	mGossips    *telemetry.Counter
	mImports    *telemetry.Counter
	mPoisoned   *telemetry.Counter
}

// New builds a federation whose registry runs on the kernel's virtual
// clock (epoch = simulation time zero).
func New(k *sim.Kernel) *Federation {
	reg := registry.New()
	reg.Now = func() time.Time { return time.Unix(0, 0).UTC().Add(k.Now()) }
	return &Federation{
		Registry:       reg,
		LeaseTTL:       DefaultLeaseTTL,
		HeartbeatEvery: DefaultHeartbeatEvery,
		GossipEvery:    DefaultGossipEvery,
		suspended:      make(map[string]bool),
	}
}

// SetTelemetry wires the coordinator's instruments
// ("federation.heartbeats", "federation.gossip_rounds",
// "federation.images_imported", "federation.images_poisoned").
func (f *Federation) SetTelemetry(h *telemetry.Hub) {
	f.mHeartbeats = h.Counter("federation.heartbeats")
	f.mGossips = h.Counter("federation.gossip_rounds")
	f.mImports = h.Counter("federation.images_imported")
	f.mPoisoned = h.Counter("federation.images_poisoned")
}

// AddCell registers a cell. Call Wire after the last AddCell.
func (f *Federation) AddCell(c *Cell) error {
	if c.Name == "" || c.Shop == nil {
		return fmt.Errorf("federation: cell needs a name and a shop")
	}
	for _, have := range f.cells {
		if have.Name == c.Name {
			return fmt.Errorf("federation: duplicate cell %q", c.Name)
		}
	}
	f.cells = append(f.cells, c)
	return nil
}

// Cells returns the registered cells in registration order.
func (f *Federation) Cells() []*Cell { return append([]*Cell(nil), f.cells...) }

// Cell looks a cell up by name.
func (f *Federation) Cell(name string) (*Cell, bool) {
	for _, c := range f.cells {
		if c.Name == name {
			return c, true
		}
	}
	return nil, false
}

// Wire publishes every cell's binding and installs each shop's peer
// list: every other cell, reached through a LocalPeerHandle that checks
// the registry lease before each call. Deterministic: peers are wired
// in registration order.
func (f *Federation) Wire() {
	for _, c := range f.cells {
		f.publish(c)
	}
	for _, c := range f.cells {
		var peers []shop.PeerHandle
		for _, o := range f.cells {
			if o == c {
				continue
			}
			peers = append(peers, shop.NewLocalPeerHandle(o.Shop, f.Registry))
		}
		c.Shop.SetPeers(peers)
	}
}

// publish (re-)leases one cell's registry binding.
func (f *Federation) publish(c *Cell) {
	meta := map[string]string{"cell": c.Name}
	for k, v := range c.Meta {
		meta[k] = v
	}
	// Publish cannot fail here: service and name are always set.
	_ = f.Registry.Publish(registry.Binding{
		Service: Service,
		Name:    c.Name,
		Addr:    "inproc:" + c.Name,
		Meta:    meta,
	}, f.LeaseTTL)
}

// Start spawns the heartbeat/gossip loop on the kernel.
func (f *Federation) Start(k *sim.Kernel) {
	nextGossip := k.Now() + f.GossipEvery
	f.proc = k.Spawn("federation/coordinator", func(p *sim.Proc) {
		for {
			if f.stopped {
				return
			}
			f.heartbeat()
			if p.Now() >= nextGossip {
				f.GossipNow(p)
				nextGossip = p.Now() + f.GossipEvery
			}
			if f.stopped {
				return
			}
			p.Wait(f.HeartbeatEvery)
		}
	})
}

// Stop ends the loop and wakes the proc so the kernel can quiesce.
// Must be called from a running proc.
func (f *Federation) Stop() {
	f.stopped = true
	if f.proc != nil {
		f.proc.WakeUp()
	}
}

// heartbeat re-leases every live cell's binding and sweeps lapsed ones.
// A suspended or killed cell is not renewed: its binding expires on its
// own within one LeaseTTL.
func (f *Federation) heartbeat() {
	for _, c := range f.cells {
		if f.suspended[c.Name] || c.Shop.Down() {
			continue
		}
		f.publish(c)
	}
	f.Registry.Sweep()
	f.mHeartbeats.Inc()
}

// Suspend takes a cell out of the federation: its binding is withdrawn
// immediately (peers fail fast on the next lease check) and heartbeats
// stop renewing it.
func (f *Federation) Suspend(name string) {
	f.suspended[name] = true
	f.Registry.Withdraw(Service, name)
}

// Resume returns a suspended cell to service and re-leases its binding
// immediately.
func (f *Federation) Resume(name string) {
	delete(f.suspended, name)
	if c, ok := f.Cell(name); ok {
		f.publish(c)
	}
}

// GossipStats aggregates one gossip round across all importing cells.
type GossipStats struct {
	Cells    int // cells that participated
	Imported int // derived images materialized somewhere
	Poisoned int // quarantine verdicts newly applied somewhere
	Deferred int // entries waiting on a parent seed
	Rejected int // entries that failed parse or publication
}

// GossipNow runs one catalog-exchange round immediately: every live
// cell's derived catalog is exported once, then every other live cell
// imports it. Deterministic: cells exchange in registration order.
// Cells that are suspended or down neither export nor import.
func (f *Federation) GossipNow(p *sim.Proc) GossipStats {
	var st GossipStats
	type export struct {
		from    string
		entries []warehouse.CatalogEntry
	}
	var exports []export
	for _, c := range f.cells {
		if f.suspended[c.Name] || c.Shop.Down() || c.Warehouse == nil {
			continue
		}
		st.Cells++
		exports = append(exports, export{from: c.Name, entries: c.Warehouse.ExportCatalog()})
	}
	for _, c := range f.cells {
		if f.suspended[c.Name] || c.Shop.Down() || c.Warehouse == nil {
			continue
		}
		for _, ex := range exports {
			if ex.from == c.Name {
				continue
			}
			ist := c.Warehouse.ImportCatalog(ex.entries, p.Now())
			st.Imported += ist.Imported
			st.Poisoned += ist.Quarantined
			st.Deferred += ist.Deferred
			st.Rejected += ist.Rejected
		}
	}
	f.mGossips.Inc()
	f.mImports.Add(int64(st.Imported))
	f.mPoisoned.Add(int64(st.Poisoned))
	return st
}

// Status is a JSON-ready snapshot of the federation for debug
// endpoints and vmctl.
type Status struct {
	Cells  []CellStatus `json:"cells"`
	Leases []string     `json:"leases"` // live registry bindings, sorted
}

// CellStatus is one cell's row in Status.
type CellStatus struct {
	Name      string `json:"name"`
	Down      bool   `json:"down,omitempty"`
	Suspended bool   `json:"suspended,omitempty"`
	Images    int    `json:"images"`
	Derived   int    `json:"derived"`
	Forwarded int    `json:"forwarded"`
}

// StatusNow snapshots the federation.
func (f *Federation) StatusNow() Status {
	var st Status
	for _, c := range f.cells {
		cs := CellStatus{
			Name:      c.Name,
			Down:      c.Shop.Down(),
			Suspended: f.suspended[c.Name],
			Forwarded: len(c.Shop.Federation().Forwarded),
		}
		if c.Warehouse != nil {
			cs.Images = len(c.Warehouse.List())
			cs.Derived = c.Warehouse.DerivedCount()
		}
		st.Cells = append(st.Cells, cs)
	}
	sort.Slice(st.Cells, func(i, j int) bool { return st.Cells[i].Name < st.Cells[j].Name })
	for _, b := range f.Registry.Discover(Service) {
		st.Leases = append(st.Leases, b.Name)
	}
	return st
}
