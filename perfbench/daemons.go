package main

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/cost"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/service"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
	"vmplants/internal/workload"
)

// The daemons-tcp workload: one shop daemon and tcpPlants plant
// daemons over loopback TCP, built in-process the way vmshopd and
// vmplantd build themselves with their default flags.
const (
	tcpPlants    = 4
	tcpPlantCap  = 32 // vmplantd -maxvms default
	tcpNetworks  = 4  // vmplantd -networks default
	tcpTimeout   = 30 * time.Second
	tcpWindow    = 16                     // live workspaces: each arrival destroys the one created tcpWindow arrivals earlier
	tcpSetups    = setupSamples           // set-ups per run; setup_s is their median
	tcpSlice     = 500 * time.Millisecond // closed-loop slice; host metrics are medians over slices
	tcpOpenShare = 0.2                    // share of --seconds the open loop runs
	// tcpOpenRate is the open-loop arrival rate, in sessions per second:
	// about half the closed-loop rate (~500/s on one P).
	tcpOpenRate = 250.0
	// tcpPoolUsers is how many distinct workspaces the closed loop
	// cycles through.
	tcpPoolUsers = 4096
)

// daemonSet is a running shop daemon and its plant daemons.
type daemonSet struct {
	shopAddr string
	shop     *shop.Shop
	plants   []*plant.Plant
	runners  []*service.Runner // one per plant
	hubs     []*telemetry.Hub  // shop first, then every plant
	jnls     []*journal.Journal
	lis      []net.Listener
	counted  []*countingListener // traced runs only; plant listeners first
	serving  sync.WaitGroup
}

// listen opens a loopback listener, counting when traced.
func (d *daemonSet) listen(t *tracer) (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if t != nil {
		cl := &countingListener{Listener: l}
		d.counted = append(d.counted, cl)
		l = cl
	}
	d.lis = append(d.lis, l)
	return l, nil
}

// serve runs l's accept loop; connection goroutines inherit its
// "proto" label (traced runs only).
func (d *daemonSet) serve(l net.Listener, h proto.Handler, traced bool) {
	d.serving.Add(1)
	withLabel(traced, "proto", func() {
		go func() {
			defer d.serving.Done()
			proto.Serve(l, h)
		}()
	})
}

// stop closes every listener and waits for the accept loops to end.
func (d *daemonSet) stop() {
	for _, l := range d.lis {
		l.Close()
	}
	d.serving.Wait()
}

// startDaemons builds and starts the daemons. t, when set, wraps every
// handler and plant handle and counts every connection.
func startDaemons(seed int64, t *tracer) (*daemonSet, error) {
	d := &daemonSet{}
	model, err := cost.ByName("free-memory")
	if err != nil {
		return nil, err
	}
	shopHub := telemetry.New()
	shopHub.T().SetIDBase(telemetry.IDBaseForInstance("shop"))
	d.hubs = append(d.hubs, shopHub)
	var handles []shop.PlantHandle
	for i := 0; i < tcpPlants; i++ {
		name := fmt.Sprintf("plant%d", i)
		hub := telemetry.New()
		hub.T().SetIDBase(telemetry.IDBaseForInstance(name))
		k := sim.NewKernel()
		k.SetTelemetry(hub)
		tb := cluster.NewTestbed(k, 1, cluster.DefaultParams(), seed*31+int64(i))
		wh := warehouse.New(tb.Warehouse)
		wh.SetTelemetry(hub)
		for _, mem := range paperSizesMB {
			hw := core.HardwareSpec{Arch: "x86", MemoryMB: mem, DiskMB: goldenDiskMB}
			im, err := warehouse.BuildGolden(workload.GoldenName(mem, backend), hw, backend, workload.InVigoGoldenHistory())
			if err != nil {
				return nil, err
			}
			if err := wh.Publish(im); err != nil {
				return nil, err
			}
		}
		pl := plant.New(name, tb.Nodes[0], wh, plant.Config{
			MaxVMs: tcpPlantCap, HostOnlyNetworks: tcpNetworks, CostModel: model, Telemetry: hub,
		})
		runner := service.NewRunner(k)
		hub.VClock = runner
		hub.SLO = telemetry.NewSLOEngine(hub.M(), workload.DefaultSLOObjectives()...)
		jnl := journal.Open(tb.Nodes[0].LocalDisk(), "journal/"+name)
		jnl.SetTelemetry(hub)
		pl.SetJournal(jnl)
		wh.SetJournal(jnl)
		l, err := d.listen(t)
		if err != nil {
			return nil, err
		}
		h := service.NewPlantHandler(runner, pl)
		if t != nil {
			h = t.wrapPlantd(h, runner)
		}
		d.serve(l, h, t != nil)
		d.plants = append(d.plants, pl)
		d.runners = append(d.runners, runner)
		d.hubs = append(d.hubs, hub)
		d.jnls = append(d.jnls, jnl)
		var ph shop.PlantHandle = &service.RemotePlant{PlantName: name, Addr: l.Addr().String(), Timeout: tcpTimeout, Telemetry: shopHub}
		if t != nil {
			ph = t.wrapHandle(ph)
		}
		handles = append(handles, ph)
	}
	s := shop.New("shop", handles, seed)
	s.CacheAds = true
	s.SetTelemetry(shopHub)
	k := sim.NewKernel()
	k.SetTelemetry(shopHub)
	runner := service.NewRunner(k)
	shopHub.VClock = runner
	shopHub.SLO = telemetry.NewSLOEngine(shopHub.M(), workload.DefaultSLOObjectives()...)
	vol := storage.NewVolume("shop-log", storage.NewDevice("shop-log-disk", 64<<20, 100*time.Microsecond))
	jnl := journal.Open(vol, "journal/shop")
	jnl.SetTelemetry(shopHub)
	s.SetJournal(jnl)
	d.jnls = append(d.jnls, jnl)
	d.shop = s
	l, err := d.listen(t)
	if err != nil {
		return nil, err
	}
	h := service.NewShopHandler(runner, s)
	if t != nil {
		h = t.wrapShopd(h)
	}
	d.serve(l, h, t != nil)
	d.shopAddr = l.Addr().String()
	return d, nil
}

// hosted lists every VM the plant daemons host.
func (d *daemonSet) hosted() []core.VMID {
	var out []core.VMID
	for _, pl := range d.plants {
		out = append(out, pl.VMIDs()...)
	}
	return out
}

// virtualNow sums the plant daemons' virtual clocks. Between requests
// it only moves while a plant serves one, so across a lone creation it
// advances by the virtual time the bid round and the build took.
func (d *daemonSet) virtualNow() time.Duration {
	var v time.Duration
	for _, r := range d.runners {
		v += r.Now()
	}
	return v
}

// counter sums a counter over every daemon's hub.
func (d *daemonSet) counter(name string) int64 {
	var n int64
	for _, h := range d.hubs {
		n += h.Counter(name).Value()
	}
	return n
}

// tcpRequest is a session's pre-built wire request.
type tcpRequest struct {
	s      session
	create *proto.Message
}

func tcpRequests(ss []session) []tcpRequest {
	out := make([]tcpRequest, len(ss))
	for i, s := range ss {
		out[i] = tcpRequest{s: s, create: &proto.Message{Kind: proto.KindCreateRequest, Create: proto.FromSpec(s.Spec, "")}}
	}
	return out
}

// client is one benchmark connection to the shop daemon.
type client struct {
	c *proto.Client
	t *tracer
}

func dialShop(addr string, t *tracer) (*client, error) {
	c, err := proto.Dial(addr, tcpTimeout)
	if err != nil {
		return nil, err
	}
	return &client{c: c, t: t}, nil
}

func (c *client) call(m *proto.Message) (*proto.Message, error) {
	if c.t == nil {
		return c.c.Call(m)
	}
	done := c.t.enter(nil, "proto.call", "bench.client")
	resp, err := c.c.Call(m)
	done(err)
	return resp, err
}

// create sends a pre-built create request; a fresh copy of the message
// is sent so the template can be reused.
func (c *client) create(r tcpRequest) (outcome, error) {
	m := *r.create
	resp, err := c.call(&m)
	o := outcome{Seq: r.s.Seq}
	if err != nil {
		// Without the shop's ephemeral port, so two runs compare equal.
		o.Err = strings.ReplaceAll(err.Error(), c.c.RemoteAddr(), "shop")
		return o, err
	}
	o.fill(core.VMID(resp.Created.VMID), resp.Created.Ad)
	return o, nil
}

func (c *client) destroy(id core.VMID) error {
	resp, err := c.call(&proto.Message{Kind: proto.KindDestroyRequest, Destroy: &proto.DestroyRequest{VMID: string(id)}})
	if err != nil {
		return err
	}
	if !resp.Destroyed.Destroyed {
		return fmt.Errorf("destroy %s: not destroyed", id)
	}
	return nil
}

// slice is the host cost of one stretch of the closed loop.
type slice struct {
	wallS, cpuS float64
	allocs      uint64
	creates     int
}

// tcpRun is what one full drive of the daemons produced.
type tcpRun struct {
	open       []outcome // open-loop phase, in arrival order
	late       []float64 // generator lateness per open-loop arrival, seconds
	closedN    int       // closed-loop creations that succeeded
	closedErr  int       // closed-loop creations that failed
	firstErr   string    // the first closed-loop creation refused
	closedS    float64   // closed-loop wall seconds
	slices     []slice   // closed-loop host cost, slice by slice
	destroys   int       // destroys sent over both phases
	heapLiveMB float64   // after the open loop
}

// openLoop sends the open-loop stream at its fixed rate on one
// connection, timing each creation from its due time, and destroys the
// workspace created tcpWindow arrivals earlier after each creation.
// It leaves the last tcpWindow workspaces live. A failed destroy fails
// the audit.
func openLoop(c *client, d *daemonSet, reqs []tcpRequest, run *tcpRun) error {
	run.open = make([]outcome, len(reqs))
	run.late = make([]float64, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.s.Due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		run.late[i] = time.Since(due).Seconds()
		v0 := d.virtualNow()
		o, err := c.create(r)
		o.Latency = time.Since(due).Seconds()
		o.PlantVS = (d.virtualNow() - v0).Seconds()
		if err != nil {
			o.Latency = miss
			o.PlantVS = miss
		}
		run.open[i] = o
		if j := i - tcpWindow; j >= 0 && run.open[j].OK {
			run.destroys++
			if err := c.destroy(run.open[j].VMID); err != nil {
				return fmt.Errorf("audit: session %d: %w", run.open[j].Seq, err)
			}
			run.open[j].Destroyed = true
		}
	}
	return nil
}

// closedLoop runs one connection flat out for dur, destroying each
// creation tcpWindow creations later, and samples the host at every
// slice boundary. Workspaces still live at the end are returned.
func closedLoop(addr string, t *tracer, pool []tcpRequest, dur time.Duration, run *tcpRun) ([]core.VMID, error) {
	c, err := dialShop(addr, t)
	if err != nil {
		return nil, err
	}
	defer c.c.Close()
	slices := int(dur / tcpSlice)
	if slices < 1 {
		slices = 1
	}
	var live []core.VMID
	start := time.Now()
	prev, prevN := sampleHost(), 0
	for n := 0; len(run.slices) < slices; n++ {
		o, err := c.create(pool[n%len(pool)])
		if err != nil {
			run.closedErr++
			if run.firstErr == "" {
				run.firstErr = err.Error()
			}
		} else {
			run.closedN++
			live = append(live, o.VMID)
			if len(live) > tcpWindow {
				run.destroys++
				if err := c.destroy(live[0]); err != nil {
					return live, err
				}
				live = live[1:]
			}
		}
		if time.Since(start) >= dur*time.Duration(len(run.slices)+1)/time.Duration(slices) {
			cur := sampleHost()
			run.slices = append(run.slices, slice{
				wallS: cur.wall.Sub(prev.wall).Seconds(), cpuS: (cur.cpu - prev.cpu).Seconds(),
				allocs: cur.mallocs - prev.mallocs, creates: run.closedN - prevN,
			})
			prev, prevN = cur, run.closedN
		}
	}
	run.closedS = wallSince(start)
	return live, nil
}

// driveDaemons runs both phases against a started daemon set, auditing
// the live set after each; the closed loop is the measured phase.
func driveDaemons(d *daemonSet, open, pool []tcpRequest, closedFor time.Duration, t *tracer) (*tcpRun, error) {
	run := &tcpRun{}
	c, err := dialShop(d.shopAddr, t)
	if err != nil {
		return nil, err
	}
	defer c.c.Close()
	if t != nil {
		t.setPhase("open")
	}
	if err := openLoop(c, d, open, run); err != nil {
		return nil, err
	}
	var live []core.VMID
	for _, o := range run.open {
		if o.OK && !o.Destroyed {
			live = append(live, o.VMID)
		}
	}
	if err := problems(auditLiveSet(live, d.hosted())); err != nil {
		return nil, fmt.Errorf("after open loop: %w", err)
	}
	// Clear the open loop's window so the closed loop starts empty.
	for _, id := range live {
		if err := c.destroy(id); err != nil {
			return nil, err
		}
	}
	// The heap is read here, after a fixed number of sessions: at the
	// end of the closed loop it would grow with the throughput.
	run.heapLiveMB = liveHeapMB()
	if t != nil {
		t.setPhase("closed")
	}
	if live, err = closedLoop(d.shopAddr, t, pool, closedFor, run); err != nil {
		return nil, err
	}
	if err := problems(auditLiveSet(live, d.hosted())); err != nil {
		return nil, fmt.Errorf("after closed loop: %w", err)
	}
	for _, id := range live {
		if err := c.destroy(id); err != nil {
			return nil, err
		}
	}
	if err := problems(auditLiveSet(nil, d.hosted())); err != nil {
		return nil, fmt.Errorf("after teardown: %w", err)
	}
	for _, j := range d.jnls {
		if _, bad := j.Verify(); bad != 0 {
			return nil, fmt.Errorf("audit: journal %s: %d bad records", j.Dir(), bad)
		}
	}
	return run, nil
}

// tcpSchedule generates the run's traffic from the seed.
func tcpSchedule(seed int64, seconds float64) (open, pool []tcpRequest, closedFor time.Duration, err error) {
	n := int(tcpOpenRate * tcpOpenShare * seconds)
	if n < 1000 {
		n = 1000
	}
	gap := time.Duration(float64(time.Second) / tcpOpenRate)
	ss, err := tcpSessions(seed, n, 1, gap)
	if err != nil {
		return nil, nil, 0, err
	}
	ps, err := tcpSessions(seed, tcpPoolUsers, n+1, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	closed := seconds * (1 - tcpOpenShare)
	if closed < 1 {
		closed = 1
	}
	return tcpRequests(ss), tcpRequests(ps), time.Duration(closed * float64(time.Second)), nil
}

// setUp starts the daemons tcpSetups times, keeping the last set; it
// returns the set-up times.
func setUp(seed int64, t *tracer) (*daemonSet, []float64, error) {
	var setups []float64
	var d *daemonSet
	for i := 0; i < tcpSetups; i++ {
		if d != nil {
			d.stop()
		}
		var secs float64
		var err error
		d, secs, err = timeSetup(func() (*daemonSet, error) { return startDaemons(seed, t) })
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
	}
	return d, setups, nil
}

// runDaemons measures daemons-tcp. Untraced, it reports the end-to-end
// metrics; traced, it drives a second, traced daemon set with the same
// schedule and reports the per-layer metrics.
func runDaemons(o runOpts) (*report, error) {
	open, pool, closedFor, err := tcpSchedule(o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	if o.traced {
		// Both drives share the budget.
		closedFor /= 2
	}
	d, setups, err := setUp(o.seed, nil)
	if err != nil {
		return nil, err
	}
	run, err := driveDaemons(d, open, pool, closedFor, nil)
	d.stop()
	if err != nil {
		return nil, err
	}
	if err := problems(auditOutcomes(sessionsOf(open), run.open, false)); err != nil {
		return nil, err
	}
	r := &report{Workload: "daemons-tcp"}
	if err := tcpEndToEnd(r, run, setups); err != nil {
		return nil, err
	}
	if !o.traced {
		return r, nil
	}
	return r, traceDaemons(r, o, run, open, pool, closedFor)
}

func sessionsOf(reqs []tcpRequest) []session {
	out := make([]session, len(reqs))
	for i, r := range reqs {
		out[i] = r.s
	}
	return out
}

// tcpEndToEnd adds the end-to-end metrics of one untraced drive.
func tcpEndToEnd(r *report, run *tcpRun, setups []float64) error {
	var vs, wall []float64
	openOK, openFail := 0, 0
	for _, o := range run.open {
		if o.OK {
			openOK++
			vs = append(vs, o.PlantVS)
		} else {
			openFail++
			vs = append(vs, miss)
		}
		wall = append(wall, o.Latency)
	}
	p50, _ := percentile(vs, 0.5)
	p99, ok := tail(vs, 0.99)
	late, _ := percentile(run.late, 0.99)
	w50, _ := percentile(wall, 0.5)
	w99, ok2 := tail(wall, 0.99)
	if !ok || !ok2 {
		return fmt.Errorf("%d open-loop sessions are too few for a p99", len(run.open))
	}
	r.Attempted = len(run.open) + run.closedN + run.closedErr + run.destroys
	r.Failed = openFail + run.closedErr
	r.Phases = append(r.Phases,
		phase{Name: "open-loop", Sent: len(run.open), Succeeded: openOK, Failed: openFail, Samples: len(wall), LateP99ms: 1000 * late},
		phase{Name: "closed-loop", Sent: run.closedN + run.closedErr, Succeeded: run.closedN, Failed: run.closedErr, Samples: run.closedN, FirstErr: run.firstErr})
	var rate, cpu, allocs []float64
	for _, sl := range run.slices {
		n := float64(sl.creates)
		rate = append(rate, n/sl.wallS)
		cpu = append(cpu, 1000*sl.cpuS/n)
		allocs = append(allocs, float64(sl.allocs)/n)
	}
	r.e2e("setup_s", "s", median(setups), len(setups))
	r.e2e("create_p50_vs", "vs", p50, len(vs))
	r.e2e("create_p99_vs", "vs", p99, len(vs))
	r.e2e("failed_frac", "ratio", frac(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	// The closed loop's host figures are medians over its slices, so a
	// burst of outside load on a shared host moves one slice, not the
	// result.
	r.e2e("creates_per_s", "1/s", median(rate), len(rate))
	r.e2e("cpu_ms_per_create", "ms", median(cpu), len(cpu))
	r.e2e("allocs_per_create", "count", median(allocs), len(allocs))
	r.e2e("heap_live_mb", "MB", run.heapLiveMB, 1)
	r.e2e("wall_p50_ms", "ms", 1000*w50, len(wall))
	r.e2e("wall_p99_ms", "ms", 1000*w99, len(wall))
	return nil
}

// traceDaemons drives a traced daemon set with the same schedule,
// checks its open-loop outcomes against the untraced drive, and adds
// the per-layer metrics.
func traceDaemons(r *report, o runOpts, ref *tcpRun, open, pool []tcpRequest, closedFor time.Duration) error {
	tr := newTracedRun()
	d, err := startDaemons(o.seed, tr.t)
	if err != nil {
		return err
	}
	defer d.stop()
	tr.hub = d.hubs[0]
	before := make(map[string]int64)
	for _, n := range tracedCounters {
		before[n] = d.counter(n)
	}
	var run *tcpRun
	err = tr.phase(d, func() (err error) {
		run, err = driveDaemons(d, open, pool, closedFor, tr.t)
		return err
	})
	if err != nil {
		return err
	}
	if err := sameOutcomes(ref.open, run.open, false); err != nil {
		return fmt.Errorf("traced run diverged: %w", err)
	}
	for _, n := range tracedCounters {
		tr.counts[n] = float64(d.counter(n) - before[n])
	}
	tr.creates = tally(run.open).creates + run.closedN

	// A daemon's kernel runs inside its request handler, so the
	// labelled handler time includes the sim layer's.
	simLayers(r, tr)
	created := tr.t.op("plantd." + string(proto.KindCreateRequest)).virt
	c50, _ := percentile(created, 0.5)
	c99, _ := percentile(created, 0.99)
	setLayer(r, "plant.create_p50_vs", c50)
	setLayer(r, "plant.create_p99_vs", c99)
	var p99s []float64
	for _, h := range d.hubs[1:] {
		p99s = append(p99s, histP99(h, "plant.admission_wait_secs"))
	}
	sort.Float64s(p99s)
	setLayer(r, "plant.admission_wait_p99_vs", p99s[len(p99s)-1])
	r.layer("shop.forwarded_frac", "ratio", tr.perCreate(tr.delta("shop.forwarded_creates")), tr.creates)
	r.layer("warehouse.derived_images", "count", 0, len(d.plants))
	for _, m := range []struct{ name, unit string }{
		{"federation.gossip_rounds", "count"}, {"federation.gossip_cpu_us_per_create", "us"},
		{"federation.gossip_ms_per_round", "ms"}, {"federation.gossip_useful_frac", "ratio"},
	} {
		r.layer(m.name, m.unit, 0, 0)
	}
	var accepts, bytes int64
	for _, l := range d.counted {
		bytes += l.bytes.Load()
	}
	for _, l := range d.counted[:tcpPlants] {
		accepts += l.accepts.Load()
	}
	r.layer("proto.dials_per_create", "count", tr.perCreate(float64(accepts)), tr.creates)
	r.layer("proto.bytes_per_create", "B", tr.perCreate(float64(bytes)), tr.creates)
	var rpc, handler []float64
	for _, op := range []string{"plant.estimate", "plant.create", "plant.collect"} {
		rpc = append(rpc, tr.t.op(op).wall...)
	}
	for name, st := range tr.t.opsSnapshot() {
		if strings.HasPrefix(name, "plantd.") {
			handler = append(handler, st.wall...)
		}
	}
	rpc50, _ := percentile(rpc, 0.5)
	h50, _ := percentile(handler, 0.5)
	r.layer("proto.shop_plant_rpc_p50_ms", "ms", 1000*rpc50, len(rpc))
	r.layer("proto.plantd_handler_p50_ms", "ms", 1000*h50, len(handler))
	r.layer("proto.envelope_us_per_rpc", "us", 1e6*(mean(rpc)-mean(handler)), len(rpc))
	r.layer("proto.rpc_retries", "count", tr.delta("proto.rpc_retries"), len(rpc))
	shopd := tr.t.op("shopd.closed").wall
	s50, _ := percentile(shopd, 0.5)
	s99, _ := percentile(shopd, 0.99)
	r.layer("service.shopd_handler_p50_ms", "ms", 1000*s50, len(shopd))
	r.layer("service.shopd_handler_p99_ms", "ms", 1000*s99, len(shopd))
	late, _ := percentile(ref.late, 0.99)
	r.layer("bench.gen_late_p99_ms", "ms", 1000*late, len(ref.late))
	// Both loops are paced by the clock, so tracing shows as lost
	// closed-loop throughput rather than longer runs.
	refRate := float64(ref.closedN) / ref.closedS
	rate := float64(run.closedN) / run.closedS
	r.layer("bench.trace_overhead_frac", "ratio", refRate/rate-1, 2)
	return writeArtifacts(o, "daemons-tcp", tr.spans, tr.prof)
}

// setLayer overwrites a per-layer metric's value.
func setLayer(r *report, name string, v float64) {
	for i := range r.PerLayer {
		if r.PerLayer[i].Name == name {
			r.PerLayer[i].Value = v
		}
	}
}
