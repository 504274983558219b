package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"vmplants/internal/guestbench"
	"vmplants/internal/journal"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
)

// Experiment is one entry of the evaluation registry: everything needed
// to run an experiment, report it, gate it and replay it. vmbench, the
// pre-merge gate and the registry test all iterate Experiments(), so
// adding an experiment means adding one entry here.
type Experiment struct {
	Name   string
	Header string
	// Run executes the experiment at paper scale, or scaled down for
	// CI when smoke is set.
	Run func(seed int64, smoke bool) (*Outcome, error)
}

// Outcome is what one run of an experiment produced.
type Outcome struct {
	// Report is printed under the header, one Println per element.
	Report []string
	// Violations lists acceptance-gate failures; empty passes.
	Violations []string
	// Fingerprint digests the run's virtual-time observables. A gated
	// experiment sets it, and a same-seed rerun must reproduce it byte
	// for byte.
	Fingerprint string
	// Artifacts are the files written when an artifacts directory is
	// given: journals and traces that keep a red gate debuggable
	// without a local repro.
	Artifacts []Artifact
}

// Artifact is one named output file of a run. Names start with the
// experiment's name, so one directory holds every experiment's files.
type Artifact struct {
	Name  string
	Write func(w io.Writer) error
}

// Replay runs e and, when the outcome carries a fingerprint, reruns it
// on the same seed: a rerun that is not byte-identical is a violation.
// reproducible reports the rerun's verdict (false when e is ungated).
func (e Experiment) Replay(seed int64, smoke bool) (out *Outcome, reproducible bool, err error) {
	out, err = e.Run(seed, smoke)
	if err != nil || out.Fingerprint == "" {
		return out, false, err
	}
	again, err := e.Run(seed, smoke)
	if err != nil {
		return nil, false, fmt.Errorf("same-seed rerun: %w", err)
	}
	reproducible = again.Fingerprint == out.Fingerprint
	if !reproducible {
		out.Violations = append(out.Violations, "same-seed rerun not byte-identical")
	}
	return out, reproducible, nil
}

// Experiments returns the registry in vmbench's run order: the paper's
// figures and tables, then the extensions and their gates.
func Experiments() []Experiment {
	figs := &figures{}
	return []Experiment{
		{Name: "fig4", Header: "Figure 4: distribution of overall VM creation latencies", Run: figs.run(figure4)},
		{Name: "fig5", Header: "Figure 5: distribution of VM cloning latencies", Run: figs.run(figure5)},
		{Name: "fig6", Header: "Figure 6: cloning time vs VM sequence number", Run: figs.run(figure6)},
		{Name: "copy", Header: "§4.3: link-clone vs explicit full copy", Run: copyExperiment},
		{Name: "uml", Header: "§4.3: UML production line (32 MB, full boot per clone)", Run: umlExperiment},
		{Name: "cost", Header: "§3.4: cost-function crossover (2 plants, network cost 50, compute 4×VMs)", Run: costExperiment},
		{Name: "overhead", Header: "§4.3: run-time virtualization overheads (cited constants)", Run: overheadExperiment},
		{Name: "anatomy", Header: "Anatomy of a 64 MB creation (stage means over 32 requests)", Run: anatomyExperiment},
		{Name: "trace", Header: "Telemetry: per-stage creation-time breakdown from traces (virtual seconds)", Run: traceExperiment},
		{Name: "ablations", Header: "Ablations: what each mechanism buys", Run: ablationsExperiment},
		{Name: "extensions", Header: "Extensions: the paper's §6 future work, implemented", Run: extensionsExperiment},
		{Name: "chaos", Header: "Chaos: fault injection and failure recovery (§3.1 soft-state design)", Run: chaosExperiment},
		{Name: "pipeline", Header: "Pipeline: batched creation throughput (8 plants, 64 MB workspaces)", Run: pipelineExperiment},
		{Name: "warm", Header: "Warm: the warehouse learning loop (derived images, utility retirement)", Run: warmExperiment},
		{Name: "scrub", Header: "Scrub: end-to-end data integrity under corruption injection", Run: scrubExperiment},
		{Name: "slo", Header: "SLO: causal tracing, flight recorder and objectives under chaos", Run: sloExperiment},
		{Name: "restart", Header: "Restart: kill-9 crash-restart gate for the journaled control plane", Run: restartExperiment},
		{Name: "federation", Header: "Federation: multi-shop control plane with hierarchical bidding", Run: federationExperiment},
		{Name: "diurnal", Header: "Diurnal: elastic fleet under a simulated week of day/night load", Run: diurnalExperiment},
	}
}

// violations collects acceptance-gate failures.
type violations []string

func (v *violations) check(ok bool, format string, args ...interface{}) {
	if !ok {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

// figures shares one Figure 4–6 creation run, per seed and scale,
// between the three figure entries.
type figures struct {
	seed  int64
	smoke bool
	exp   *CreationExperiment
}

// run adapts one figure's renderer to a registry Run.
func (f *figures) run(render func(*CreationExperiment) []string) func(int64, bool) (*Outcome, error) {
	return func(seed int64, smoke bool) (*Outcome, error) {
		if f.exp == nil || f.seed != seed || f.smoke != smoke {
			series := PaperSeries()
			if smoke {
				series = SmokeSeries()
			}
			exp, err := RunCreationExperiment(seed, series)
			if err != nil {
				return nil, err
			}
			*f = figures{seed: seed, smoke: smoke, exp: exp}
		}
		return &Outcome{Report: render(f.exp)}, nil
	}
}

func figure4(e *CreationExperiment) []string {
	hists, order := e.Figure4()
	lines := []string{stats.MultiHistogramTable("latency (s, bucket center)", hists, order)}
	for _, s := range e.Series {
		recs := e.Records[s.MemoryMB]
		lines = append(lines, fmt.Sprintf("%3d MB: %d/%d created, %s", s.MemoryMB,
			Succeeded(recs), len(recs), stats.Summarize(CreateTimes(recs))))
	}
	return append(lines,
		"\npaper: VMs instantiated on average in 25–48 s; envelope 17–85 s;",
		"creation times larger for larger memory sizes; 121/124/40 VMs created.")
}

func figure5(e *CreationExperiment) []string {
	hists, order := e.Figure5()
	lines := []string{stats.MultiHistogramTable("cloning time (s, bucket center)", hists, order)}
	for _, s := range e.Series {
		lines = append(lines, fmt.Sprintf("%3d MB clone: %s", s.MemoryMB,
			stats.Summarize(CloneTimes(e.Records[s.MemoryMB]))))
	}
	return lines
}

func figure6(e *CreationExperiment) []string {
	var down []*stats.Series
	for _, s := range e.Figure6() {
		down = append(down, s.Downsample(8))
	}
	lines := []string{stats.MultiSeriesTable("sequence", down...)}
	for _, s := range e.Figure6() {
		lines = append(lines, fmt.Sprintf("%s trend: %+.3f s/request", s.Name, s.TrendSlope()))
	}
	return append(lines, "\npaper: cloning times increase as plants fill; most noticeable for 64 MB and 256 MB.")
}

func copyExperiment(seed int64, _ bool) (*Outcome, error) {
	res, err := RunCopyBaseline(seed)
	if err != nil {
		return nil, err
	}
	return &Outcome{Report: []string{
		fmt.Sprintf("golden disk: %d bytes across %d extent files", res.GoldenDiskBytes, res.GoldenSpanFiles),
		fmt.Sprintf("full copy over NFS:        %6.1f s   (paper: ≈210 s)", res.FullCopySecs),
		fmt.Sprintf("average 256 MB link clone: %6.1f s", res.AvgClone256Secs),
		fmt.Sprintf("slowdown factor:           %6.1f×   (paper: ≈4×)", res.SlowdownFactor),
	}}, nil
}

func umlExperiment(seed int64, _ bool) (*Outcome, error) {
	res, err := RunUML(seed, 40)
	if err != nil {
		return nil, err
	}
	return &Outcome{Report: []string{
		fmt.Sprintf("clones: %s", res.CloneSummary),
		"paper: average cloning time 76 s",
	}}, nil
}

func costExperiment(seed int64, _ bool) (*Outcome, error) {
	res, err := RunCostCrossover(seed, 16)
	if err != nil {
		return nil, err
	}
	lines := []string{"request  plant"}
	for i, pl := range res.Assignments {
		lines = append(lines, fmt.Sprintf("%7d  %s", i+1, pl))
	}
	lines = append(lines, fmt.Sprintf("\ncrossover at request %d (paper: the 14th request switches plants)", res.Crossover))
	return &Outcome{Report: lines}, nil
}

func overheadExperiment(int64, bool) (*Outcome, error) {
	return &Outcome{Report: []string{
		guestbench.FormatTable(guestbench.Table()),
		"paper: SPEC INT2000 ≈2 % (VMware), 3 % (UML), ≈0 % (Xen);",
		"SPECseis ≈6 % under VMware; I/O-heavy LSS ≈13 %.",
	}}, nil
}

func anatomyExperiment(seed int64, _ bool) (*Outcome, error) {
	res, err := RunAnatomy(seed, 32)
	if err != nil {
		return nil, err
	}
	return &Outcome{Report: []string{
		fmt.Sprintf("state copy over NFS:    %6.1f s", res.CopySecs.Mean),
		fmt.Sprintf("resume (read + VMM):    %6.1f s", res.ResumeSecs.Mean),
		fmt.Sprintf("residual configuration: %6.1f s", res.ConfigSecs.Mean),
		fmt.Sprintf("plant-side total:       %6.1f s", res.TotalSecs.Mean),
		fmt.Sprintf("client end-to-end:      %6.1f s (adds discovery/bidding/transport)", res.ClientSecs.Mean),
	}}, nil
}

// traceStages are the creation pipeline's span names in execution
// order; the trace table lists them first, then anything else a run
// happened to trace.
var traceStages = []string{"shop.create", "shop.bid", "plant.create", "plan",
	"clone", "clone.copy", "clone.resume", "clone.boot", "configure", "action"}

func traceExperiment(seed int64, _ bool) (*Outcome, error) {
	hub := telemetry.New()
	d, err := NewDeployment(Options{Seed: seed, Telemetry: hub})
	if err != nil {
		return nil, err
	}
	recs, err := d.RunCreationSeries(16, 64)
	if err != nil {
		return nil, err
	}
	spans := hub.Tracer.Spans()
	byStage := make(map[string][]float64)
	for _, s := range spans {
		byStage[s.Name] = append(byStage[s.Name], s.Virtual().Seconds())
	}
	known := make(map[string]bool, len(traceStages))
	for _, s := range traceStages {
		known[s] = true
	}
	var rest []string
	for name := range byStage {
		if !known[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	lines := []string{fmt.Sprintf("%-16s %5s %8s %8s %8s %8s", "stage", "n", "mean", "p50", "p90", "max")}
	for _, name := range append(traceStages, rest...) {
		samples, ok := byStage[name]
		if !ok {
			continue
		}
		sum := stats.Summarize(samples)
		lines = append(lines, fmt.Sprintf("%-16s %5d %8.2f %8.2f %8.2f %8.2f",
			name, sum.N, sum.Mean, sum.P50, sum.P90, sum.Max))
	}
	lines = append(lines, fmt.Sprintf("\n%d spans from %d/%d successful creations; %d metrics registered",
		len(spans), Succeeded(recs), len(recs), len(hub.Metrics.Snapshot())))
	return &Outcome{Report: lines, Artifacts: []Artifact{{Name: "trace.jsonl", Write: hub.Tracer.WriteJSONL}}}, nil
}

func ablationsExperiment(seed int64, _ bool) (*Outcome, error) {
	a1, err := RunAblationNoPartialMatch(seed, 4)
	if err != nil {
		return nil, err
	}
	a2, err := RunTemplateVsDAG(seed, 8)
	if err != nil {
		return nil, err
	}
	a3, err := RunAblationCopyClone(seed, 4)
	if err != nil {
		return nil, err
	}
	return &Outcome{Report: []string{
		fmt.Sprintf("A1 no partial matching: %.1f s → %.1f s per create (%.0f× slower)",
			a1.BaselineSecs.Mean, a1.VariantSecs.Mean, a1.Factor),
		fmt.Sprintf("A2 template matching:   %d/%d cache hits vs %d/%d with DAGs; mean %.1f s vs %.1f s",
			a2.TemplateHits, a2.Requests, a2.DAGHits, a2.Requests,
			a2.TemplateSummary.Mean, a2.DAGSummary.Mean),
		fmt.Sprintf("A3 copy-clone:          %.1f s → %.1f s per create (%.0f× slower)",
			a3.BaselineSecs.Mean, a3.VariantSecs.Mean, a3.Factor),
	}}, nil
}

func extensionsExperiment(seed int64, _ bool) (*Outcome, error) {
	pre, err := RunPrecreation(seed, 6)
	if err != nil {
		return nil, err
	}
	mig, err := RunMigration(seed, 4)
	if err != nil {
		return nil, err
	}
	uml, err := RunPrecreationBackend(seed, 4, "uml")
	if err != nil {
		return nil, err
	}
	park, err := RunParking(seed, 5)
	if err != nil {
		return nil, err
	}
	return &Outcome{Report: []string{
		fmt.Sprintf("E9 speculative pre-creation: %.1f s → %.1f s per create (%.1f× faster, %d/6 pool hits)",
			pre.ColdSummary.Mean, pre.WarmSummary.Mean, pre.Speedup, pre.Hits),
		fmt.Sprintf("E10 VM migration:            %.1f s to migrate vs %.1f s to re-create (%.1f× faster)",
			mig.MigrateSecs.Mean, mig.RecreateSecs.Mean, mig.Speedup),
		fmt.Sprintf("E11 SBUML-style UML resume:  %.1f s boot → %.1f s checkpoint resume (%.1f× faster)",
			uml.ColdSummary.Mean, uml.WarmSummary.Mean, uml.Speedup),
		fmt.Sprintf("E13 workspace parking:       suspend %.1f s, resume %.1f s (vs %.1f s re-create); %d MB → %d MB committed while parked",
			park.SuspendSecs.Mean, park.ResumeSecs.Mean, park.CreateSecs.Mean,
			park.CommittedBefore, park.CommittedParked),
	}}, nil
}

func chaosExperiment(seed int64, smoke bool) (*Outcome, error) {
	opts := ChaosOptions{}
	if smoke {
		opts.Requests = 16
	}
	res, err := RunChaos(seed, opts)
	if err != nil {
		return nil, err
	}
	return gated(res, res.Fingerprint), nil
}

func pipelineExperiment(seed int64, smoke bool) (*Outcome, error) {
	opts, vms := PipelineOptions{}, 8
	if smoke {
		opts.Sizes, vms = []int{1, 4, 16}, 4
	}
	res, err := RunPipeline(seed, opts)
	if err != nil {
		return nil, err
	}
	cmp, err := RunCloneComparison(seed, vms, 64)
	if err != nil {
		return nil, err
	}
	lines := []string{fmt.Sprintf("%5s %4s %4s %12s %14s %10s %14s %12s",
		"batch", "ok", "fail", "makespan(s)", "thruput(vm/s)", "cache h/m", "adm-wait p99", "max-inflight")}
	fp := []string{res.SerialFingerprint, res.BatchFingerprint, cmp.Eager.Fingerprint, cmp.Lazy.Fingerprint}
	for _, bp := range res.Batches {
		lines = append(lines, fmt.Sprintf("%5d %4d %4d %12.1f %14.4f %6d/%-4d %13.1fs %12d",
			bp.Size, bp.OK, bp.Failed, bp.MakespanSecs, bp.Throughput,
			bp.CacheHits, bp.CacheMisses, bp.AdmissionWait.P99, bp.MaxInflight))
		fp = append(fp, fmt.Sprintf("%+v", bp))
	}
	lines = append(lines,
		fmt.Sprintf("\nbatch-16 vs batch-1 throughput: %.1f×", res.SpeedupOver(16, 1)),
		fmt.Sprintf("serial vs batch single-request creation log byte-identical: %v", res.DeterminismOK),
		"\nLazy vs eager cloning (content-addressed extent store):")
	lines = append(lines, cmp.Report()...)
	metrics := struct {
		Batches    []BatchPoint
		Comparison *CloneComparison
	}{res.Batches, cmp}
	return &Outcome{
		Report:      lines,
		Violations:  append(res.GateViolations(), cmp.GateViolations()...),
		Fingerprint: strings.Join(fp, "\n"),
		Artifacts: []Artifact{{Name: "pipeline-metrics.json", Write: func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(metrics)
		}}},
	}, nil
}

func warmExperiment(seed int64, smoke bool) (*Outcome, error) {
	opts := WarmOptions{}
	if smoke {
		opts = SmokeWarmOptions()
	}
	res, err := RunWarm(seed, opts)
	if err != nil {
		return nil, err
	}
	return gated(res, res.Fingerprint), nil
}

func scrubExperiment(seed int64, smoke bool) (*Outcome, error) {
	opts := ScrubOptions{}
	if smoke {
		opts = SmokeScrubOptions()
	}
	res, err := RunScrub(seed, opts)
	if err != nil {
		return nil, err
	}
	return gated(res, res.Fingerprint), nil
}

func sloExperiment(seed int64, smoke bool) (*Outcome, error) {
	opts := SLOOptions{}
	if smoke {
		opts = SLOOptions{WarmBatch: 8, ChaosRequests: 8}
	}
	res, err := RunSLO(seed, opts)
	if err != nil {
		return nil, err
	}
	return gated(res, res.Fingerprint, chromeTrace("slo-trace.json", res.Spans)), nil
}

func restartExperiment(seed int64, smoke bool) (*Outcome, error) {
	opts := RestartOptions{}
	if smoke {
		opts.Requests = 12
	}
	res, err := RunRestart(seed, opts)
	if err != nil {
		return nil, err
	}
	return gated(res, res.Fingerprint), nil
}

func federationExperiment(seed int64, smoke bool) (*Outcome, error) {
	opts := FederationOptions{}
	if smoke {
		opts = SmokeFederationOptions()
	}
	res, err := RunFederation(seed, opts)
	if err != nil {
		return nil, err
	}
	cells := make([]string, 0, len(res.Journals))
	for cell := range res.Journals {
		cells = append(cells, cell)
	}
	sort.Strings(cells)
	var arts []Artifact
	for _, cell := range cells {
		arts = append(arts, journalJSONL("federation-journal-"+cell+".jsonl", res.Journals[cell]))
	}
	return gated(res, res.Fingerprint, append(arts, chromeTrace("federation-trace.json", res.Spans))...), nil
}

func diurnalExperiment(seed int64, smoke bool) (*Outcome, error) {
	opts := DiurnalOptions{}
	if smoke {
		opts = SmokeDiurnalOptions()
	}
	res, err := RunDiurnal(seed, opts)
	if err != nil {
		return nil, err
	}
	return gated(res, res.Fingerprint,
		journalJSONL("diurnal-journal-shop.jsonl", res.Journal),
		chromeTrace("diurnal-trace.json", res.Spans)), nil
}

// gated is the outcome of a result that reports and gates itself.
func gated(res interface {
	Report() []string
	GateViolations() []string
}, fingerprint string, arts ...Artifact) *Outcome {
	return &Outcome{Report: res.Report(), Violations: res.GateViolations(), Fingerprint: fingerprint, Artifacts: arts}
}

// chromeTrace is a span set as Chrome trace-event JSON, viewable in
// chrome://tracing or ui.perfetto.dev.
func chromeTrace(name string, spans []telemetry.Span) Artifact {
	return Artifact{Name: name, Write: func(w io.Writer) error {
		return telemetry.WriteChromeTrace(w, spans)
	}}
}

// journalJSONL is a journal's records, one JSON object per line.
func journalJSONL(name string, recs []journal.Record) Artifact {
	return Artifact{Name: name, Write: func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
		return nil
	}}
}
