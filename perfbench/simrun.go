package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/federation"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
	"vmplants/internal/workload"
)

const (
	goldenDiskMB = 2048
	backend      = warehouse.BackendVMware
)

// isSeedImage reports whether name is one of the installer-seeded
// golden images (anything else a plant clones is a derived image).
func isSeedImage(name string) bool {
	for _, mem := range paperSizesMB {
		if name == workload.GoldenName(mem, backend) {
			return true
		}
	}
	return false
}

// simConfig shapes a simulated deployment and its session stream.
type simConfig struct {
	cells         int
	plantsPerCell int
	maxVMs        int // per plant; 0 = unlimited
	publishBack   bool
	journal       bool
	budgetMB      int           // derived-image budget per cell; 0 = unlimited
	gossipEvery   time.Duration // 0 = no federation
	sessions      func(seed int64) ([]session, error)
}

// simCell is one shop with its plants, warehouse and journal.
type simCell struct {
	name string
	d    *workload.Deployment
	shop *shop.Shop
	jnl  *journal.Journal
}

// simDeployment is a wired simulated deployment on one kernel.
type simDeployment struct {
	k     *sim.Kernel
	hub   *telemetry.Hub
	cells []simCell
	fed   *federation.Federation
}

// cellName names cell i the way the federation experiments do.
func cellName(i, cells int) string {
	if cells == 1 {
		return "shop"
	}
	return fmt.Sprintf("cell%c", 'A'+i)
}

// buildSim assembles the deployment from the repo's public
// constructors. hub and t are nil in the untraced run; the traced run
// gets the same deployment with counters attached and every plant
// handle behind a timing wrapper.
func buildSim(cfg simConfig, seed int64, hub *telemetry.Hub, t *tracer) (*simDeployment, error) {
	k := sim.NewKernel()
	k.SetTelemetry(hub)
	sd := &simDeployment{k: k, hub: hub}
	if cfg.gossipEvery > 0 {
		sd.fed = federation.New(k)
		sd.fed.SetTelemetry(hub)
		// The benchmark gossips itself, on its own cadence, so the
		// traced run can time each round; the coordinator only
		// heartbeats.
		sd.fed.GossipEvery = 1 << 30 * time.Second
	}
	for i := 0; i < cfg.cells; i++ {
		name := cellName(i, cfg.cells)
		d, err := workload.NewDeployment(workload.Options{
			Kernel:        k,
			CellName:      name,
			Plants:        cfg.plantsPerCell,
			Seed:          seed + int64(i)*101,
			GoldenSizesMB: paperSizesMB,
			GoldenDiskMB:  goldenDiskMB,
			Backend:       backend,
			CostModelName: "free-memory",
			PlantConfig:   plant.Config{MaxVMs: cfg.maxVMs, PublishBack: cfg.publishBack},
			Telemetry:     hub,
		})
		if err != nil {
			return nil, err
		}
		if cfg.budgetMB > 0 {
			d.Warehouse.SetCapacity(d.Warehouse.BytesUsed() + int64(cfg.budgetMB)<<20)
		}
		handles := make([]shop.PlantHandle, len(d.Handles))
		for j, h := range d.Handles {
			handles[j] = h
			if t != nil {
				handles[j] = t.wrapHandle(h)
			}
		}
		// The same shop NewDeployment builds, over the (possibly
		// wrapped) handles.
		s := shop.New(name, handles, seed+int64(i)*101+1)
		s.SetTelemetry(hub)
		c := simCell{name: name, d: d, shop: s}
		if cfg.journal {
			vol := storage.NewVolume(name+"-log", storage.NewDevice(name+"-log-disk", 64<<20, 100*time.Microsecond))
			c.jnl = journal.Open(vol, "journal/"+name)
			c.jnl.SetTelemetry(hub)
			s.SetJournal(c.jnl)
		}
		if sd.fed != nil {
			if err := sd.fed.AddCell(&federation.Cell{Name: name, Shop: s, Warehouse: d.Warehouse}); err != nil {
				return nil, err
			}
		}
		sd.cells = append(sd.cells, c)
	}
	if sd.fed != nil {
		sd.fed.Wire()
		withLabel(t != nil, "federation.heartbeat", func() { sd.fed.Start(k) })
	}
	return sd, nil
}

// outcome is one session's client-observed result.
type outcome struct {
	Seq       int
	OK        bool
	VMID      core.VMID
	Plant     string
	MemMB     int     // MemoryMB the answer's classad carries
	Latency   float64 // creation latency from the due time; virtual s (simulated) or wall s (TCP)
	PlantVS   float64 // virtual time the plant daemons spent on the creation (TCP only)
	CloneVS   float64 // the classad's CloneSecs
	Destroyed bool
	Err       string
}

// line renders the outcome for byte comparison between runs. Wall
// latencies are not part of it.
func (o outcome) line(virtualLatency bool) string {
	lat := 0.0
	if virtualLatency {
		lat = o.Latency
	}
	return fmt.Sprintf("%d ok=%v id=%s plant=%s mem=%d lat=%.9f plantvs=%.9f clone=%.9f destroyed=%v err=%s",
		o.Seq, o.OK, o.VMID, o.Plant, o.MemMB, lat, o.PlantVS, o.CloneVS, o.Destroyed, o.Err)
}

// fill copies what a successful creation's classad reports.
func (o *outcome) fill(id core.VMID, ad *classad.Ad) {
	o.OK = true
	o.VMID = id
	o.Plant = ad.GetString(core.AttrPlant, "")
	o.MemMB = int(ad.GetInt(core.AttrMemoryMB, 0))
	o.CloneVS = ad.GetReal(core.AttrCloneSecs, 0)
}

// gossipStats totals the rounds the benchmark ran.
type gossipStats struct {
	rounds   int
	offered  int // catalog entries sent to an importing cell
	imported int
}

// simRun is one drive of a session stream through a deployment.
type simRun struct {
	sd          *simDeployment
	sessions    []session
	gossipEvery time.Duration
	t           *tracer
	// skipDestroy, when positive, names a session whose destroy is
	// recorded as done but never sent (the audit tests use it).
	skipDestroy int

	out          []outcome
	gs           gossipStats
	done         int
	stop         bool
	main, gossip *sim.Proc
}

// runSim drives sessions through sd to completion: an arrival proc
// spawns each session at its due time; a session creates, holds and
// destroys its workspace. With a federation, a gossip proc runs one
// catalog round per gossipEvery until the last session ends.
func runSim(sd *simDeployment, sessions []session, gossipEvery time.Duration, t *tracer, skipDestroy int) ([]outcome, gossipStats, error) {
	r := &simRun{sd: sd, sessions: sessions, gossipEvery: gossipEvery, t: t, skipDestroy: skipDestroy,
		out: make([]outcome, len(sessions))}
	// Procs inherit the spawning goroutine's labels: the benchmark's
	// own procs run as "bench", the dispatch loop as "sim".
	withLabel(t != nil, "bench", r.spawn)
	var res sim.RunResult
	withLabel(t != nil, "sim", func() { res = sd.k.Run(0) })
	if len(res.Stranded) != 0 {
		return nil, r.gs, fmt.Errorf("stranded procs: %v", res.Stranded)
	}
	if r.done != len(sessions) {
		return nil, r.gs, errors.New("not every session finished")
	}
	return r.out, r.gs, nil
}

func (r *simRun) spawn() {
	k := r.sd.k
	r.main = k.Spawn("bench/main", func(p *sim.Proc) {
		for r.done < len(r.sessions) {
			p.Wait(-1)
		}
		r.stop = true
		if r.gossip != nil {
			r.gossip.WakeUp()
		}
		if r.sd.fed != nil {
			r.sd.fed.Stop()
		}
	})
	if r.sd.fed != nil {
		r.gossip = k.Spawn("bench/gossip", r.gossipLoop)
	}
	k.Spawn("bench/arrivals", func(p *sim.Proc) {
		for i := range r.sessions {
			i := i
			p.Sleep(r.sessions[i].Due - p.Now())
			k.Spawn(fmt.Sprintf("session-%d", r.sessions[i].Seq), func(p *sim.Proc) {
				r.session(p, i)
				r.done++
				r.main.WakeUp()
			})
		}
	})
}

// gossipLoop runs one catalog-exchange round per gossipEvery.
func (r *simRun) gossipLoop(p *sim.Proc) {
	for {
		p.Wait(r.gossipEvery)
		if r.stop {
			return
		}
		var g federation.GossipStats
		if r.t != nil {
			r.gs.offered += catalogOffer(r.sd)
			end := r.t.enter(p, "federation.gossip", "federation.gossip")
			g = r.sd.fed.GossipNow(p)
			end(nil)
		} else {
			g = r.sd.fed.GossipNow(p)
		}
		r.gs.rounds++
		r.gs.imported += g.Imported
	}
}

// session creates, holds and destroys session i's workspace.
func (r *simRun) session(p *sim.Proc, i int) {
	s := &r.sessions[i]
	if r.t != nil {
		r.t.beginProc(p, s.Seq, "bench")
		defer r.t.endProc(p)
	}
	o := &r.out[i]
	o.Seq = s.Seq
	shp := r.sd.cells[s.Cell].shop
	var id core.VMID
	var ad *classad.Ad
	err := timedCall(r.t, p, "shop.create", func() (err error) {
		id, ad, err = shp.Create(p, s.Spec)
		return err
	})
	o.Latency = (p.Now() - s.Due).Seconds()
	if err != nil {
		o.Latency = miss
		o.Err = err.Error()
		return
	}
	o.fill(id, ad)
	p.Sleep(s.Hold)
	if s.Seq != r.skipDestroy {
		err = timedCall(r.t, p, "shop.destroy", func() error { return shp.Destroy(p, id) })
		if err != nil {
			o.Err = "destroy: " + err.Error()
			return
		}
	}
	o.Destroyed = true
}

// timedCall runs fn inside a shop-layer span when tracing.
func timedCall(t *tracer, p *sim.Proc, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	end := t.enter(p, name, "shop")
	err := fn()
	end(err)
	return err
}

// catalogOffer is how many catalog entries the next gossip round
// offers: every live cell exports its derived images to every other.
func catalogOffer(sd *simDeployment) int {
	n := 0
	for _, c := range sd.cells {
		n += c.d.Warehouse.DerivedCount() * (len(sd.cells) - 1)
	}
	return n
}

// withLabel runs fn with the calling goroutine labelled layer (traced
// runs only); goroutines fn starts inherit the label.
func withLabel(traced bool, layer string, fn func()) {
	if !traced {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("layer", layer), func(context.Context) { fn() })
}
