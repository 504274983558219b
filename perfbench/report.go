package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported number with its unit and how many samples
// (sessions, calls, repetitions) it summarizes.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// phase is the traffic one measured phase offered and what came of it.
type phase struct {
	Name      string
	Sent      int // creations attempted
	Succeeded int
	Failed    int
	Samples   int     // latency samples (misses included)
	LateP99ms float64 // how late the generator sent, p99 (open loops on the wall clock)
	FirstErr  string  // the first failure, if any
}

// report is one workload run's result.
type report struct {
	Workload  string
	Attempted int // creates + destroys sent
	Failed    int // creates + destroys that failed or were refused
	EndToEnd  []metric
	PerLayer  []metric
	Phases    []phase
}

func (r *report) e2e(name, unit string, v float64, n int) {
	r.EndToEnd = append(r.EndToEnd, metric{name, unit, v, n})
}

func (r *report) layer(name, unit string, v float64, n int) {
	r.PerLayer = append(r.PerLayer, metric{name, unit, v, n})
}

// print writes the human-readable tables.
func (r *report) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "workload %s\n", r.Workload)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-12s sent=%d succeeded=%d failed=%d samples=%d", p.Name, p.Sent, p.Succeeded, p.Failed, p.Samples)
		if p.LateP99ms > 0 {
			fmt.Fprintf(w, " generator_late_p99=%.3fms", p.LateP99ms)
		}
		if p.FirstErr != "" {
			fmt.Fprintf(w, " first_failure=%q", p.FirstErr)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  end-to-end:\n")
	for _, m := range r.EndToEnd {
		fmt.Fprintf(w, "    %-36s %14.6f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if traced {
		fmt.Fprintf(w, "  per-layer (traced run):\n")
		for _, m := range r.PerLayer {
			fmt.Fprintf(w, "    %-36s %14.6f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
}

// jsonValue is one metric on the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the machine-readable last line of the output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// gatedEndToEnd are the end-to-end metrics on the result line: the
// ones every workload measures and that are never 0. failed_frac
// travels as attempted/failed, and the TCP wall latencies exist on
// daemons-tcp only; all of them are printed in the table.
var gatedEndToEnd = []string{
	"setup_s", "create_p50_vs", "create_p99_vs", "creates_per_s",
	"cpu_ms_per_create", "allocs_per_create", "heap_live_mb",
}

// line builds the result line: the gated end-to-end metrics untraced,
// every per-layer metric traced.
func (r *report) line(traced bool) (resultLine, error) {
	out := resultLine{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonValue{}}
	pick := func(m metric) error {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		out.Metrics[m.Name] = jsonValue{m.Value, m.Unit}
		return nil
	}
	if traced {
		for _, m := range r.PerLayer {
			if err := pick(m); err != nil {
				return out, err
			}
		}
		return out, nil
	}
	for _, name := range gatedEndToEnd {
		found := false
		for _, m := range r.EndToEnd {
			if m.Name == name {
				if err := pick(m); err != nil {
					return out, err
				}
				found = true
			}
		}
		if !found {
			return out, fmt.Errorf("metric %s not measured", name)
		}
	}
	return out, nil
}

func writeLine(w io.Writer, l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
