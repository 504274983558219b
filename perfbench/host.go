package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is the host-side cost counters at one instant.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration // process user + system CPU
	mallocs uint64
	numGC   uint32
	gcCPU   float64 // runtime-reported GC CPU seconds
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	s := hostSample{mallocs: ms.Mallocs, numGC: ms.NumGC, cpu: processCPU(), wall: time.Now()}
	if gcCPUMetric[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gcCPUMetric[0].Value.Float64()
	}
	return s
}

// hostCost is what a measured phase cost the host.
type hostCost struct {
	wallS, cpuS float64
	allocs      uint64
	gcCycles    uint32
	gcCPUS      float64
	heapLiveMB  float64 // after a forced GC at the end of the phase
}

// measure runs phase between two host samples, then forces a GC and
// reads the live heap while keep (the deployment under test) is still
// reachable.
func measure(keep any, phase func() error) (hostCost, error) {
	runtime.GC()
	a := sampleHost()
	err := phase()
	b := sampleHost()
	c := hostCost{
		wallS:    b.wall.Sub(a.wall).Seconds(),
		cpuS:     (b.cpu - a.cpu).Seconds(),
		allocs:   b.mallocs - a.mallocs,
		gcCycles: b.numGC - a.numGC,
		gcCPUS:   b.gcCPU - a.gcCPU,
	}
	c.heapLiveMB = liveHeapMB()
	runtime.KeepAlive(keep)
	return c, err
}

// liveHeapMB forces a GC and returns the heap still live after it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// wallSince is the wall time elapsed since start, in seconds.
func wallSince(start time.Time) float64 { return time.Since(start).Seconds() }
