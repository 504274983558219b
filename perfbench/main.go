// Command perfbench is the VMPlants benchmark. It assembles simulated
// and TCP deployments from the repository's own constructors, drives
// them with session traffic generated from a seed, audits every
// outcome, and reports end-to-end metrics on two clocks: the virtual
// time of the modelled grid site (what the paper measures) and the
// host time, CPU and memory it costs to simulate or serve it. A traced
// run of the same schedule adds per-layer attribution.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload site-sessions --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. The command exits nonzero,
// without that line, if any audit fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runOpts are the command-line settings one workload run sees.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string // traced-run artifacts
}

// workloadDef names a workload and says why the benchmark has it.
type workloadDef struct {
	name string
	why  string
	run  func(o runOpts) (*report, error)
}

var workloads = []workloadDef{
	{"site-sessions", "the paper's 8-plant site: bid, partial match, link clone and configuration with no gossip, journal, TCP or warehouse writes",
		func(o runOpts) (*report, error) { return runSimWorkload("site-sessions", siteConfig(), o) }},
	{"federation-zipf", "three journaled cells with publish-back, gossip and peer forwarding over a bounded Zipf user population",
		func(o runOpts) (*report, error) { return runSimWorkload("federation-zipf", federationConfig(), o) }},
	{"daemons-tcp", "shop and plant daemons over loopback TCP: XML envelopes, fresh dials per plant call and the runner lock",
		runDaemons},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the session traffic is generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-artifacts"), "directory for traced-run artifacts")
	flag.Parse()

	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	// Every workload is a serial chain: a simulation on one goroutine,
	// or one connection waiting on each RPC in turn. One P keeps that
	// chain on one CPU. With two, the garbage collector and cross-CPU
	// wake-ups used the second CPU, and how much they got depended on
	// the other tenants of a shared host more than on the program.
	runtime.GOMAXPROCS(1)
	o := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *out}
	r, err := wl.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	r.print(os.Stdout, o.traced)
	line, err := r.line(o.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if err := writeLine(os.Stdout, line); err != nil {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
