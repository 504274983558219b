package main

import (
	"fmt"
	"os"
	"path/filepath"

	"vmplants/internal/telemetry"
)

// writeArtifacts saves the first traced phase's spans as Chrome trace
// JSON and its labelled CPU profile beside them.
func writeArtifacts(o runOpts, workload string, spans []telemetry.Span, prof []byte) error {
	dir := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", workload, o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644)
}
