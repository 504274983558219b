// Command vmbench regenerates every table and figure of the paper's
// evaluation from the simulated testbed and prints them in the paper's
// layout, then runs the extension gates. Experiments come from the
// workload registry; see EXPERIMENTS.md for the index.
//
// Usage:
//
//	vmbench                          # run everything at paper scale
//	vmbench -exp fig4                # one experiment
//	vmbench -series smoke            # scaled-down quick run of everything
//	vmbench -series smoke -artifacts out/   # also write journals and traces
//
// vmbench exits 1 if any experiment errs or fails its gate; with
// -exp all the remaining experiments still run first.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"vmplants/internal/workload"
)

func main() {
	log.SetFlags(0)
	exps := workload.Experiments()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	var (
		exp       = flag.String("exp", "all", "experiment to run: all, "+strings.Join(names, ", "))
		seed      = flag.Int64("seed", 42, "random seed")
		series    = flag.String("series", "paper", "request series scale: paper or smoke")
		artifacts = flag.String("artifacts", "", "directory to write each experiment's journals and traces into")
	)
	flag.Parse()

	failed, ran := false, false
	for _, e := range exps {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		ran = true
		if !run(e, *seed, *series == "smoke", *artifacts) {
			failed = true
		}
	}
	if !ran {
		log.Fatalf("vmbench: unknown experiment %q (want all, %s)", *exp, strings.Join(names, ", "))
	}
	if failed {
		os.Exit(1)
	}
}

// run executes one experiment with its same-seed rerun, prints its
// report, writes its artifacts into dir (when set) and reports whether
// it passed.
func run(e workload.Experiment, seed int64, smoke bool, dir string) bool {
	out, reproducible, err := e.Replay(seed, smoke)
	if err != nil {
		log.Printf("vmbench: %s: %v", e.Name, err)
		return false
	}
	fmt.Printf("\n===== %s =====\n\n", e.Header)
	for _, line := range out.Report {
		fmt.Println(line)
	}
	if out.Fingerprint != "" {
		fmt.Printf("\nsame-seed rerun byte-identical: %v\n", reproducible)
	}
	if dir != "" && len(out.Artifacts) > 0 {
		if err := writeArtifacts(dir, out.Artifacts); err != nil {
			log.Printf("vmbench: %s: artifacts: %v", e.Name, err)
			return false
		}
		fmt.Printf("artifacts written to %s\n", dir)
	}
	if len(out.Violations) > 0 {
		log.Printf("vmbench: %s failed its gate:\n  %s", e.Name, strings.Join(out.Violations, "\n  "))
		return false
	}
	return true
}

func writeArtifacts(dir string, arts []workload.Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range arts {
		f, err := os.Create(filepath.Join(dir, a.Name))
		if err != nil {
			return err
		}
		if err := a.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
