package main

import (
	"context"
	"net"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/proto"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// tracer records the benchmark's own spans around each call it makes
// into a layer's public functions, and tags the calling goroutine with
// a pprof "layer" label for the call's duration so a CPU profile taken
// during the traced run attributes host CPU per layer. Only the
// traced run builds one; the untraced run makes the same calls
// unwrapped.
type tracer struct {
	spans *telemetry.Tracer

	mu     sync.Mutex
	scopes map[*sim.Proc]scope
	ops    map[string]*opStats
	clones []float64    // CloneSecs of every successful plant create
	warm   int          // plant creates that cloned a derived image
	phase  atomic.Value // name of the daemon phase running (string)
}

// scope is what a sim proc is currently inside: the innermost bench
// span (parent of the next one), its pprof label context, and the
// session the proc serves.
type scope struct {
	span    *telemetry.Span
	ctx     context.Context
	session int
}

// opStats aggregates every call through one boundary.
type opStats struct {
	calls, errs int
	virt        []float64 // virtual seconds per call (sim-side calls)
	wall        []float64 // wall seconds per call
}

// spanLimit bounds the in-memory span buffer; a traced run of every
// workload stays well below it.
const spanLimit = 1 << 21

func newTracer() *tracer {
	return &tracer{
		spans:  telemetry.NewTracer(spanLimit),
		scopes: make(map[*sim.Proc]scope),
		ops:    make(map[string]*opStats),
	}
}

// clockOf returns p as a telemetry clock, or a nil interface for
// wall-only spans.
func clockOf(p *sim.Proc) telemetry.Clock {
	if p == nil {
		return nil
	}
	return p
}

// protoCtx labels daemon connection goroutines outside their
// handlers: reading and writing envelopes.
var protoCtx = labelCtx("proto")

// labelCtx is the pprof label set naming one layer.
func labelCtx(layer string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("layer", layer))
}

// enter opens span name on p (nested under p's current bench span,
// carrying p's session id) and labels the calling goroutine with layer
// until the returned func is called with the call's error. p is nil
// for calls outside the simulation (RPCs and daemon handlers).
func (t *tracer) enter(p *sim.Proc, name, layer string) func(error) {
	t.mu.Lock()
	prev, had := t.scopes[p]
	t.mu.Unlock()
	var sp *telemetry.Span
	if prev.span != nil {
		sp = prev.span.Child(clockOf(p), name)
	} else {
		sp = t.spans.Start(clockOf(p), name)
	}
	if prev.session > 0 {
		sp.SetInt("session", int64(prev.session))
	}
	ctx := labelCtx(layer)
	pprof.SetGoroutineLabels(ctx)
	if p != nil {
		t.mu.Lock()
		t.scopes[p] = scope{span: sp, ctx: ctx, session: prev.session}
		t.mu.Unlock()
	}
	return func(err error) {
		sp.EndErr(clockOf(p), err)
		t.mu.Lock()
		st := t.ops[name]
		if st == nil {
			st = &opStats{}
			t.ops[name] = st
		}
		st.calls++
		if err != nil {
			st.errs++
		}
		if p != nil {
			st.virt = append(st.virt, (sp.VEnd - sp.VStart).Seconds())
			if had {
				t.scopes[p] = prev
			} else {
				delete(t.scopes, p)
			}
		}
		st.wall = append(st.wall, sp.WEnd.Sub(sp.WStart).Seconds())
		t.mu.Unlock()
		switch {
		case had && prev.ctx != nil:
			pprof.SetGoroutineLabels(prev.ctx)
		case p == nil:
			// A daemon connection goroutine: what follows the handler
			// is the envelope write of the proto layer.
			pprof.SetGoroutineLabels(protoCtx)
		default:
			pprof.SetGoroutineLabels(context.Background())
		}
	}
}

// beginProc starts p's session scope: p's own code runs under layer
// and every span it opens carries the session id.
func (t *tracer) beginProc(p *sim.Proc, session int, layer string) {
	ctx := labelCtx(layer)
	pprof.SetGoroutineLabels(ctx)
	t.mu.Lock()
	t.scopes[p] = scope{ctx: ctx, session: session}
	t.mu.Unlock()
}

// endProc forgets p's scope once its body is done.
func (t *tracer) endProc(p *sim.Proc) {
	t.mu.Lock()
	delete(t.scopes, p)
	t.mu.Unlock()
}

// op returns a boundary's aggregate (empty when never called).
func (t *tracer) op(name string) opStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.ops[name]; st != nil {
		return *st
	}
	return opStats{}
}

// opsSnapshot copies every boundary's aggregate.
func (t *tracer) opsSnapshot() map[string]opStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]opStats, len(t.ops))
	for name, st := range t.ops {
		out[name] = *st
	}
	return out
}

// noteCreate records what a successful plant create reported.
func (t *tracer) noteCreate(ad *classad.Ad) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clones = append(t.clones, ad.GetReal(core.AttrCloneSecs, 0))
	if !isSeedImage(ad.GetString(core.AttrGoldenImage, "")) {
		t.warm++
	}
}

// spanList returns the recorded spans in start order.
func (t *tracer) spanList() []telemetry.Span {
	s := t.spans.Spans()
	sort.SliceStable(s, func(i, j int) bool { return s[i].ID < s[j].ID })
	return s
}

// timedHandle wraps a shop.PlantHandle with a span and a layer label
// around every call the shop makes through it.
type timedHandle struct {
	inner shop.PlantHandle
	t     *tracer
}

// fullHandle is every optional capability shop and fleet type-assert
// on a plant handle, on top of the handle itself.
type fullHandle interface {
	shop.PlantHandle
	shop.Drainable
	shop.LivenessProbe
	shop.Migrator
	ActiveVMs() int
	SetBrownout(on bool)
}

// timedFullHandle is timedHandle for handles with every optional
// capability, each forwarded to the wrapped handle.
type timedFullHandle struct {
	timedHandle
	full fullHandle
}

var (
	_ shop.PlantHandle = (*timedHandle)(nil)
	_ fullHandle       = (*shop.LocalHandle)(nil)
	_ fullHandle       = (*timedFullHandle)(nil)
)

// wrapHandle returns h behind a timing wrapper that advertises exactly
// the optional capabilities h has.
func (t *tracer) wrapHandle(h shop.PlantHandle) shop.PlantHandle {
	if f, ok := h.(fullHandle); ok {
		return &timedFullHandle{timedHandle{inner: h, t: t}, f}
	}
	return &timedHandle{inner: h, t: t}
}

// unwrapHandle returns the handle a wrapper wraps (h itself otherwise).
func unwrapHandle(h shop.PlantHandle) shop.PlantHandle {
	switch w := h.(type) {
	case *timedFullHandle:
		return w.inner
	case *timedHandle:
		return w.inner
	}
	return h
}

func (h *timedHandle) Name() string { return h.inner.Name() }

func (h *timedHandle) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error) {
	done := h.t.enter(p, "plant.estimate", "plant.estimate")
	c, ad, err := h.inner.Estimate(p, spec)
	done(err)
	return c, ad, err
}

func (h *timedHandle) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (*classad.Ad, error) {
	done := h.t.enter(p, "plant.create", "plant.create")
	ad, err := h.inner.Create(p, id, spec)
	done(err)
	if err == nil {
		h.t.noteCreate(ad)
	}
	return ad, err
}

func (h *timedHandle) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	done := h.t.enter(p, "plant.query", "plant.other")
	ad, found, err := h.inner.Query(p, id)
	done(err)
	return ad, found, err
}

func (h *timedHandle) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	done := h.t.enter(p, "plant.collect", "plant.collect")
	found, err := h.inner.Collect(p, id)
	done(err)
	return found, err
}

func (h *timedHandle) Publish(p *sim.Proc, id core.VMID, image string) error {
	done := h.t.enter(p, "plant.publish", "plant.other")
	err := h.inner.Publish(p, id, image)
	done(err)
	return err
}

func (h *timedHandle) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	done := h.t.enter(p, "plant.lifecycle", "plant.other")
	err := h.inner.Lifecycle(p, id, op)
	done(err)
	return err
}

func (h *timedHandle) List(p *sim.Proc) ([]core.VMID, error) {
	done := h.t.enter(p, "plant.list", "plant.other")
	ids, err := h.inner.List(p)
	done(err)
	return ids, err
}

func (h *timedFullHandle) SetDraining(on bool) { h.full.SetDraining(on) }
func (h *timedFullHandle) Retire()             { h.full.Retire() }
func (h *timedFullHandle) Alive() bool         { return h.full.Alive() }
func (h *timedFullHandle) ActiveVMs() int      { return h.full.ActiveVMs() }
func (h *timedFullHandle) SetBrownout(on bool) { h.full.SetBrownout(on) }

// MigrateVM unwraps dst first: the wrapped handle's migration wants
// its own concrete handle type on the other end.
func (h *timedFullHandle) MigrateVM(p *sim.Proc, id core.VMID, dst shop.PlantHandle) error {
	done := h.t.enter(p, "plant.migrate", "plant.other")
	err := h.full.MigrateVM(p, id, unwrapHandle(dst))
	done(err)
	return err
}

// setPhase names the daemon phase now running; shop-daemon handler
// calls are aggregated per phase.
func (t *tracer) setPhase(name string) { t.phase.Store(name) }

// wrapShopd times the shop daemon's handler, labelling its goroutine
// as the shop layer: the shop's own logic runs inside it.
func (t *tracer) wrapShopd(h proto.Handler) proto.Handler {
	return func(req *proto.Message) *proto.Message {
		phase, _ := t.phase.Load().(string)
		done := t.enter(nil, "shopd."+phase, "shop")
		resp := h(req)
		done(nil)
		return resp
	}
}

// plantdLayers maps a plant daemon request to the plant operation it
// serves, so both ends of the shop→plant boundary land in one layer.
var plantdLayers = map[proto.Kind]string{
	proto.KindEstimateRequest: "plant.estimate",
	proto.KindCreateRequest:   "plant.create",
	proto.KindDestroyRequest:  "plant.collect",
}

// wrapPlantd times a plant daemon's handler per request kind, in wall
// time and in the virtual time the daemon's kernel advanced serving it.
func (t *tracer) wrapPlantd(h proto.Handler, clock interface{ Now() time.Duration }) proto.Handler {
	return func(req *proto.Message) *proto.Message {
		layer, ok := plantdLayers[req.Kind]
		if !ok {
			layer = "plant.other"
		}
		name := "plantd." + string(req.Kind)
		v0 := clock.Now()
		done := t.enter(nil, name, layer)
		resp := h(req)
		done(nil)
		v := (clock.Now() - v0).Seconds()
		t.mu.Lock()
		t.ops[name].virt = append(t.ops[name].virt, v)
		t.mu.Unlock()
		return resp
	}
}

// countingListener counts accepted connections and the bytes that
// cross them in both directions.
type countingListener struct {
	net.Listener
	accepts, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepts.Add(1)
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}
