package workload

import (
	"fmt"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/match"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
)

func TestInVigoDAGMatchesFigure3(t *testing.T) {
	g, err := InVigoDAG("arijit", "00:50:56:00:00:01", "10.1.0.7")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 9 {
		t.Errorf("nodes = %d, want 9 (A..I)", g.Len())
	}
	// The golden history matches as the A,B,C prefix, residual D E F G I H.
	r := match.Evaluate(g, InVigoGoldenHistory())
	if !r.OK || len(r.Matched) != 3 {
		t.Fatalf("golden history match: %+v", r)
	}
	want := []string{"D", "E", "F", "G", "I", "H"}
	for i, id := range want {
		if r.Residual[i] != id {
			t.Fatalf("residual = %v, want %v", r.Residual, want)
		}
	}
	// G (configure VNC) must precede H (start VNC); I is unordered wrt both.
	if !g.Before("G", "H") || g.Before("I", "H") || g.Before("H", "I") {
		t.Error("Figure 3 ordering constraints wrong")
	}
}

func TestGenericDAGIsGoldenExactCover(t *testing.T) {
	g, err := GenericDAG()
	if err != nil {
		t.Fatal(err)
	}
	r := match.TemplateEvaluate(g, InVigoGoldenHistory())
	if !r.OK || len(r.Residual) != 0 {
		t.Errorf("generic DAG template result: %+v", r)
	}
}

func TestDeploymentDefaults(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Plants) != 8 {
		t.Errorf("%d plants", len(d.Plants))
	}
	if got := d.Warehouse.List(); len(got) != 3 {
		t.Errorf("goldens = %v", got)
	}
	if _, ok := d.Warehouse.Lookup(GoldenName(64, "vmware")); !ok {
		t.Error("64MB golden missing")
	}
}

func TestCreationSeriesSmoke(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 2, GoldenSizesMB: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := d.RunCreationSeries(10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || Succeeded(recs) != 10 {
		t.Fatalf("records: %d, ok: %d", len(recs), Succeeded(recs))
	}
	sum := stats.Summarize(CreateTimes(recs))
	// The paper's envelope: creations in 17–85 s.
	if sum.Min < 10 || sum.Max > 100 {
		t.Errorf("creation times out of envelope: %s", sum)
	}
	// Memory-based bidding spreads VMs across plants.
	plants := map[string]bool{}
	for _, r := range recs {
		plants[r.Plant] = true
	}
	if len(plants) < 4 {
		t.Errorf("only %d plants used", len(plants))
	}
}

func TestCreationSeriesDeterministic(t *testing.T) {
	run := func() []CreationRecord {
		d, err := NewDeployment(Options{Seed: 3, GoldenSizesMB: []int{32}})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := d.RunCreationSeries(6, 32)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFailureInjectionSurfacesToClient(t *testing.T) {
	d, err := NewDeployment(Options{
		Seed:          4,
		GoldenSizesMB: []int{32},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.FailActions(actions.OpConfigureNetwork, 1.0)
	recs, err := d.RunCreationSeries(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	if Succeeded(recs) != 0 {
		t.Errorf("%d succeeded with certain failure", Succeeded(recs))
	}
	for _, r := range recs {
		if r.Err == "" {
			t.Error("failed record without error text")
		}
	}
}

func TestSmokeCreationExperimentShapes(t *testing.T) {
	exp, err := RunCreationExperiment(11, SmokeSeries())
	if err != nil {
		t.Fatal(err)
	}
	// Ordering of means by memory size (Figure 4's second observation).
	sums := exp.SummaryBySize()
	if !(sums[32].Mean < sums[64].Mean && sums[64].Mean < sums[256].Mean) {
		t.Errorf("means not ordered: 32=%v 64=%v 256=%v", sums[32].Mean, sums[64].Mean, sums[256].Mean)
	}
	// Histograms have mass and normalized frequencies.
	f4, order := exp.Figure4()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for _, label := range order {
		if f4[label].N() == 0 {
			t.Errorf("figure-4 histogram %s empty", label)
		}
	}
	f5, _ := exp.Figure5()
	if f5["32 MB"].N() == 0 {
		t.Error("figure-5 empty")
	}
	// Figure 6 series exist and are per-sequence.
	f6 := exp.Figure6()
	if len(f6) != 3 || f6[0].Len() == 0 {
		t.Errorf("figure-6 series: %d", len(f6))
	}
}

func TestCostCrossoverAtThirteen(t *testing.T) {
	res, err := RunCostCrossover(5, 14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crossover != 14 {
		t.Errorf("crossover at request %d, want 14 (13 VMs on the first plant)", res.Crossover)
	}
	first := res.Assignments[0]
	for i := 0; i < 13; i++ {
		if res.Assignments[i] != first {
			t.Errorf("request %d on %s, want %s", i+1, res.Assignments[i], first)
		}
	}
}

func TestUMLCloneAverageNear76s(t *testing.T) {
	res, err := RunUML(6, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CloneSummary.Mean; got < 65 || got > 90 {
		t.Errorf("UML mean clone = %.1fs, want ≈76s", got)
	}
}

func TestCopyBaselineFactor(t *testing.T) {
	res, err := RunCopyBaseline(7)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 2 GB full copy ≈ 210 s, "around 4 times slower than the
	// average cloning time of the 256MB VM".
	if res.FullCopySecs < 180 || res.FullCopySecs > 240 {
		t.Errorf("full copy = %.1fs, want ≈210s", res.FullCopySecs)
	}
	if res.SlowdownFactor < 2.5 || res.SlowdownFactor > 6.5 {
		t.Errorf("slowdown factor = %.2f, want ≈4", res.SlowdownFactor)
	}
}

func TestAblationNoPartialMatch(t *testing.T) {
	res, err := RunAblationNoPartialMatch(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Full OS install (~20 min) vs tens of seconds: a huge factor.
	if res.Factor < 10 {
		t.Errorf("no-partial-match factor = %.1f, want ≫10", res.Factor)
	}
	if res.VariantOK != 3 || res.BaselineOK != 3 {
		t.Errorf("ok counts: base %d, variant %d", res.BaselineOK, res.VariantOK)
	}
}

func TestAblationCopyClone(t *testing.T) {
	res, err := RunAblationCopyClone(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Factor < 3 {
		t.Errorf("copy-clone factor = %.1f, want > 3", res.Factor)
	}
}

func TestTemplateVsDAG(t *testing.T) {
	res, err := RunTemplateVsDAG(10, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Template: only the generic half hits; DAG: everything hits.
	if res.TemplateHits != 3 {
		t.Errorf("template hits = %d, want 3", res.TemplateHits)
	}
	if res.DAGHits != 6 {
		t.Errorf("DAG hits = %d, want 6", res.DAGHits)
	}
	// Template misses pay the OS install: much slower on average.
	if !(res.TemplateSummary.Mean > 3*res.DAGSummary.Mean) {
		t.Errorf("template mean %.1fs vs DAG mean %.1fs", res.TemplateSummary.Mean, res.DAGSummary.Mean)
	}
}

func TestWorkspaceSpecValid(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 1, GoldenSizesMB: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{1, 250, 62500} {
		s, err := d.WorkspaceSpec(seq, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("seq %d: %v", seq, err)
		}
	}
}

func TestDeploymentRunReportsStranded(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 1, GoldenSizesMB: []int{32}, Plants: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(func(p *sim.Proc) { p.Wait(-1) }); err == nil {
		t.Error("stranded process not reported")
	}
}

func TestVMIDsRoundTripCore(t *testing.T) {
	d, _ := NewDeployment(Options{Seed: 1, GoldenSizesMB: []int{32}, Plants: 1})
	recs, err := d.RunCreationSeries(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ParseVMID(string(recs[0].VMID)); err != nil {
		t.Errorf("minted VMID invalid: %v", err)
	}
}

func TestGoldenHistoryIsLinearExtensionOfDAG(t *testing.T) {
	g, _ := InVigoDAG("u", "m", "10.0.0.1")
	ids := []string{"A", "B", "C"}
	if !g.IsLinearExtension(ids) {
		t.Error("golden history order violates the DAG")
	}
}

func TestPrecreationHidesLatency(t *testing.T) {
	res, err := RunPrecreation(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 5 {
		t.Errorf("pool hits = %d, want 5", res.Hits)
	}
	// Pre-creation removes the NFS state copy from the critical path;
	// resume, configuration and protocol remain, so the end-to-end gain
	// is a solid fraction, not an order of magnitude.
	if res.Speedup < 1.15 {
		t.Errorf("speedup = %.2f, want visible latency hiding", res.Speedup)
	}
}

func TestMigrationFasterThanRecreation(t *testing.T) {
	res, err := RunMigration(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MigrateSecs.Mean <= 0 {
		t.Fatal("no migration time recorded")
	}
	if res.Speedup < 1.2 {
		t.Errorf("migration speedup = %.2f (migrate %.1fs vs recreate %.1fs)",
			res.Speedup, res.MigrateSecs.Mean, res.RecreateSecs.Mean)
	}
}

func TestUMLCheckpointResumeSkipsBoot(t *testing.T) {
	// The SBUML study the paper left open: UML clones resumed from
	// checkpoints avoid the ≈76 s boot entirely, so the gain is far
	// larger than for the VMware line.
	res, err := RunPrecreationBackend(14, 4, "uml")
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits != 4 {
		t.Errorf("pool hits = %d", res.Hits)
	}
	if res.Speedup < 2.5 {
		t.Errorf("UML checkpoint speedup = %.2f (cold %.1fs, warm %.1fs), want ≫2×",
			res.Speedup, res.ColdSummary.Mean, res.WarmSummary.Mean)
	}
}

// Property: any topological prefix of any random DAG passes all three
// matching tests, and matched+residual partition the action set.
func TestRandomDAGTopoPrefixAlwaysMatches(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		g, err := RandomDAG(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		k := rng.Intn(g.Len() + 1)
		perf, err := TopoPrefixActions(g, k)
		if err != nil {
			t.Fatal(err)
		}
		r := match.Evaluate(g, perf)
		if !r.OK {
			t.Fatalf("trial %d: prefix of %d rejected: %s (%s)", trial, k, r.Failed, r.Reason)
		}
		if len(r.Matched)+len(r.Residual) != g.Len() {
			t.Fatalf("trial %d: %d matched + %d residual ≠ %d nodes",
				trial, len(r.Matched), len(r.Residual), g.Len())
		}
		// Shuffling the prefix out of order must never crash, and if it
		// violates the partial order the matcher says so.
		if k >= 2 {
			perm := rng.Perm(k)
			shuffled := make([]dagActionAlias, 0, k)
			_ = shuffled
			sh := make([]dag.Action, k)
			for i, j := range perm {
				sh[i] = perf[j]
			}
			r2 := match.Evaluate(g, sh)
			if r2.OK && !g.IsLinearExtension(r2.Matched) {
				t.Fatalf("trial %d: matcher accepted a non-linear-extension history", trial)
			}
		}
	}
}

type dagActionAlias = dag.Action

// Concurrent clients: the paper's runs are sequential, but the system
// must stay correct when several clients create at once — the NFS
// server's stream slots serialize the copies, so everything succeeds,
// just slower per request.
func TestConcurrentClientsAllSucceed(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 31, GoldenSizesMB: []int{64}, Plants: 4})
	if err != nil {
		t.Fatal(err)
	}
	const clients, each = 4, 3
	results := make([][]CreationRecord, clients)
	for c := 0; c < clients; c++ {
		c := c
		d.Kernel.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for i := 0; i < each; i++ {
				spec, err := d.WorkspaceSpec(c*100+i, 64)
				if err != nil {
					p.Failf("%v", err)
				}
				spec.Domain = fmt.Sprintf("domain%d.edu", c)
				start := p.Now()
				_, ad, err := d.Shop.Create(p, spec)
				rec := CreationRecord{Seq: i, CreateSecs: (p.Now() - start).Seconds()}
				if err == nil {
					rec.OK = true
					rec.Plant = ad.GetString(core.AttrPlant, "")
				} else {
					rec.Err = err.Error()
				}
				results[c] = append(results[c], rec)
			}
		})
	}
	res := d.Kernel.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	for c, recs := range results {
		if Succeeded(recs) != each {
			t.Errorf("client %d: %d/%d succeeded: %+v", c, Succeeded(recs), each, recs)
		}
	}
}

// Chaos: a plant dies mid-series; the shop routes around it and the
// series keeps succeeding.
func TestPlantDeathMidSeries(t *testing.T) {
	d, err := NewDeployment(Options{Seed: 32, GoldenSizesMB: []int{64}, Plants: 3})
	if err != nil {
		t.Fatal(err)
	}
	var ok, failed int
	err = d.Run(func(p *sim.Proc) {
		for i := 1; i <= 9; i++ {
			if i == 4 {
				d.Handles[0].Down = true // kill one plant
			}
			spec, err := d.WorkspaceSpec(i, 64)
			if err != nil {
				p.Failf("%v", err)
			}
			if _, _, err := d.Shop.Create(p, spec); err != nil {
				failed++
			} else {
				ok++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok != 9 {
		t.Errorf("%d/9 creations survived a plant death (failed %d)", ok, failed)
	}
	// VMs on the dead plant are unreachable, but the shop still serves
	// queries for VMs on live plants.
}

func TestParkingFreesMemoryAndResumesFast(t *testing.T) {
	res, err := RunParking(15, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedParked != 0 {
		t.Errorf("parked workspaces still commit %d MB", res.CommittedParked)
	}
	if res.CommittedBefore <= 0 {
		t.Error("no memory committed while running")
	}
	// Resume is much cheaper than re-creating the workspace.
	if !(res.ResumeSecs.Mean < res.CreateSecs.Mean/2) {
		t.Errorf("resume %.1fs vs create %.1fs", res.ResumeSecs.Mean, res.CreateSecs.Mean)
	}
}

func TestAnatomyStagesSumSensibly(t *testing.T) {
	res, err := RunAnatomy(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 8 {
		t.Errorf("N = %d", res.N)
	}
	sum := res.CopySecs.Mean + res.ResumeSecs.Mean + res.ConfigSecs.Mean
	if !(sum <= res.TotalSecs.Mean+1) {
		t.Errorf("stages %.1f exceed total %.1f", sum, res.TotalSecs.Mean)
	}
	if !(res.TotalSecs.Mean < res.ClientSecs.Mean) {
		t.Errorf("plant total %.1f ≥ client %.1f", res.TotalSecs.Mean, res.ClientSecs.Mean)
	}
}
