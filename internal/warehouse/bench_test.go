package warehouse

import (
	"fmt"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/dag"
)

// BenchmarkGossipExportImport is one steady-state catalog-gossip round
// between 3 cells holding 60 derived images each: every cell exports
// its catalog and every other cell imports it. After the first round
// the catalogs have converged, so — as in a long-running federation —
// every entry is already known and the round changes nothing.
func BenchmarkGossipExportImport(b *testing.B) {
	const cells, perCell = 3, 60
	var ws []*Warehouse
	for c := 0; c < cells; c++ {
		w := newWarehouse()
		seed, err := BuildGolden("seed", hw(), BackendVMware, history())
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Publish(seed); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perCell; i++ {
			perf := append(append([]dag.Action(nil), seed.Performed...),
				act(actions.OpInstallPackage, "name", fmt.Sprintf("pkg-%d-%d", c, i)))
			im, err := BuildDerived(fmt.Sprintf("derived-%d-%02d", c, i), seed, perf)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.PublishDerived(im, 0); err != nil {
				b.Fatal(err)
			}
		}
		ws = append(ws, w)
	}
	round := func() (imported int) {
		exports := make([][]CatalogEntry, len(ws))
		for i, w := range ws {
			exports[i] = w.ExportCatalog()
		}
		for i, w := range ws {
			for j, entries := range exports {
				if i != j {
					imported += w.ImportCatalog(entries, time.Second).Imported
				}
			}
		}
		return imported
	}
	if n := round(); n != (cells-1)*cells*perCell {
		b.Fatalf("first round imported %d, want %d", n, (cells-1)*cells*perCell)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := round(); n != 0 {
			b.Fatalf("converged round imported %d", n)
		}
	}
}
