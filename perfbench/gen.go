package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/sim"
	"vmplants/internal/workload"
)

// session is one generated workspace session: a creation due at Due
// (offset from the start of its phase), held for Hold, then destroyed.
// Everything in it comes from the seed before any timing starts.
type session struct {
	Seq   int // 1-based, in arrival order
	Due   time.Duration
	Hold  time.Duration // simulated workloads only
	User  int
	MemMB int
	Cell  int // target cell (federation-zipf)
	Spec  *core.Spec
}

// The paper's site serves the 32/64/256 MB In-VIGO workspaces in its
// 128/128/40 request mix (§4.2, Figures 4-6).
var (
	paperSizesMB   = []int{32, 64, 256}
	paperSizeMixes = []int{128, 128, 40}
)

// drawSize picks a memory size from the paper's mix.
func drawSize(rng *sim.RNG) int {
	total := 0
	for _, w := range paperSizeMixes {
		total += w
	}
	x := rng.Intn(total)
	for i, w := range paperSizeMixes {
		if x < w {
			return paperSizesMB[i]
		}
		x -= w
	}
	return paperSizesMB[len(paperSizesMB)-1]
}

// workspaceSpec builds user's creation request. userEnv selects the
// longer user-environment DAG, whose residual configuration is long
// enough for the plant to publish a derived image back.
func workspaceSpec(user, memMB int, userEnv bool) (*core.Spec, error) {
	name := fmt.Sprintf("user%05d", user)
	mac := fmt.Sprintf("00:50:56:%02x:%02x:%02x", (user>>16)&0xff, (user>>8)&0xff, user&0xff)
	ip := fmt.Sprintf("10.1.%d.%d", (user/250)%250, user%250+1)
	build := workload.InVigoDAG
	if userEnv {
		build = workload.InVigoUserEnvDAG
	}
	g, err := build(name, mac, ip)
	if err != nil {
		return nil, err
	}
	return &core.Spec{
		Name:     "workspace-" + name,
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: memMB, DiskMB: goldenDiskMB},
		Domain:   "ufl.edu",
		Backend:  backend,
		Graph:    g,
	}, nil
}

// siteSessions is the paper's site stream: Poisson arrivals in
// virtual time, exponential holds, every user distinct.
func siteSessions(seed int64, n int, meanGap, meanHold time.Duration) ([]session, error) {
	rng := sim.NewRNG(seed*7919 + 1)
	out := make([]session, n)
	var at time.Duration
	for i := range out {
		at += sim.Seconds(rng.Exp(meanGap.Seconds()))
		s := session{Seq: i + 1, Due: at, Hold: sim.Seconds(rng.Exp(meanHold.Seconds())), User: i + 1, MemMB: drawSize(rng)}
		spec, err := workspaceSpec(s.User, s.MemMB, false)
		if err != nil {
			return nil, err
		}
		s.Spec = spec
		out[i] = s
	}
	return out, nil
}

// zipfSessions is the federation stream: users drawn from a bounded
// Zipf population (each user always asks for the same workspace, so
// repeats can clone the user's derived image), hotShare of the
// arrivals aimed at cell 0 and the rest spread over the others.
// Arrivals are paced (one per meanGap, jittered within it) and holds
// uniform around meanHold, so the tail reflects the system's service
// times rather than one seed's Poisson bursts.
func zipfSessions(seed int64, n, users int, zipfS float64, cells int, hotShare float64, meanGap, meanHold time.Duration) ([]session, error) {
	rng := sim.NewRNG(seed*7919 + 2)
	cdf := zipfCDF(users, zipfS)
	sizes := zipfSizes(cdf)
	specs := make([]*core.Spec, users)
	out := make([]session, n)
	var at time.Duration
	for i := range out {
		at = time.Duration(i)*meanGap + time.Duration(rng.Float64()*float64(meanGap))
		hold := time.Duration((0.5 + rng.Float64()) * float64(meanHold))
		u := sort.SearchFloat64s(cdf, rng.Float64())
		cell := 0
		if cells > 1 && !rng.Bernoulli(hotShare) {
			cell = 1 + rng.Intn(cells-1)
		}
		mem := sizes[u]
		if specs[u] == nil {
			spec, err := workspaceSpec(u+1, mem, true)
			if err != nil {
				return nil, err
			}
			specs[u] = spec
		}
		out[i] = session{Seq: i + 1, Due: at, Hold: hold, User: u + 1, MemMB: mem, Cell: cell, Spec: specs[u]}
	}
	return out, nil
}

// zipfSizes gives each user of a Zipf population a fixed workspace
// size such that the requests, weighted by popularity, follow the
// paper's mix: going down the ranks, each user takes the size furthest
// behind its share of the weight so far. Every seed then asks for the
// same mix, so no seed's median lands on the edge between two sizes.
func zipfSizes(cdf []float64) []int {
	total := 0
	for _, w := range paperSizeMixes {
		total += w
	}
	got := make([]float64, len(paperSizesMB))
	out := make([]int, len(cdf))
	prev := 0.0
	for u, c := range cdf {
		best, gap := 0, math.Inf(-1)
		for i, w := range paperSizeMixes {
			if d := c*float64(w)/float64(total) - got[i]; d > gap {
				best, gap = i, d
			}
		}
		got[best] += c - prev
		prev = c
		out[u] = paperSizesMB[best]
	}
	return out
}

// zipfCDF is the cumulative distribution of a Zipf law over n ranks:
// rank k (0-based) has weight 1/(k+1)^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// tcpSessions is the daemon stream: n arrivals at a fixed rate, every
// user distinct, sizes from the paper's mix. firstUser offsets the
// user numbering so two streams of one run never share users.
func tcpSessions(seed int64, n, firstUser int, gap time.Duration) ([]session, error) {
	rng := sim.NewRNG(seed*7919 + 3 + int64(firstUser))
	out := make([]session, n)
	for i := range out {
		s := session{Seq: i + 1, Due: time.Duration(i) * gap, User: firstUser + i, MemMB: drawSize(rng)}
		spec, err := workspaceSpec(s.User, s.MemMB, false)
		if err != nil {
			return nil, err
		}
		s.Spec = spec
		out[i] = s
	}
	return out, nil
}
