package federation

import (
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

func history(pkgs ...string) []dag.Action {
	h := []dag.Action{{Op: actions.OpInstallOS, Params: map[string]string{"distro": "redhat-8.0"}}}
	for _, p := range pkgs {
		h = append(h, dag.Action{Op: actions.OpInstallPackage, Params: map[string]string{"name": p}})
	}
	return h
}

// testFederation builds three cells over identically seeded
// warehouses; cell i additionally publishes one derived image,
// "derived-<cell>", that only it holds.
func testFederation(t *testing.T) (*Federation, *telemetry.Hub) {
	t.Helper()
	k := sim.NewKernel()
	f := New(k)
	hub := telemetry.New()
	f.SetTelemetry(hub)
	for _, name := range []string{"a", "b", "c"} {
		w := warehouse.New(storage.NewVolume("wh-"+name, storage.NewDevice("nfs", 11e6, 0)))
		hw := core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048}
		seed, err := warehouse.BuildGolden("seed", hw, warehouse.BackendVMware, history())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Publish(seed); err != nil {
			t.Fatal(err)
		}
		d, err := warehouse.BuildDerived("derived-"+name, seed, history("pkg-"+name))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.PublishDerived(d, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.AddCell(&Cell{Name: name, Shop: shop.New(name, nil, 1), Warehouse: w}); err != nil {
			t.Fatal(err)
		}
	}
	return f, hub
}

// gossip runs one GossipNow round on a kernel proc.
func gossip(f *Federation) GossipStats {
	var st GossipStats
	k := sim.NewKernel()
	k.Spawn("gossip", func(p *sim.Proc) { st = f.GossipNow(p) })
	k.Run(0)
	return st
}

func derivedIn(f *Federation, cell string) []string {
	c, _ := f.Cell(cell)
	var out []string
	for _, n := range c.Warehouse.List() {
		if im, _ := c.Warehouse.Lookup(n); im.Derived {
			out = append(out, n)
		}
	}
	return out
}

// The first round spreads every cell's derived image to both peers;
// the second finds every entry known and imports nothing.
func TestGossipImportsOnceThenIsIdempotent(t *testing.T) {
	f, hub := testFederation(t)
	st := gossip(f)
	if st.Cells != 3 || st.Imported != 6 || st.Deferred != 0 || st.Rejected != 0 {
		t.Fatalf("first round = %+v, want 3 cells and 6 imports", st)
	}
	for _, c := range f.Cells() {
		if got := c.Warehouse.DerivedCount(); got != 3 {
			t.Errorf("cell %s holds %d derived images %v, want 3", c.Name, got, derivedIn(f, c.Name))
		}
	}
	st = gossip(f)
	if st.Imported != 0 || st.Poisoned != 0 || st.Rejected != 0 {
		t.Errorf("second round = %+v, want nothing imported", st)
	}
	if got := hub.Counter("federation.images_imported").Value(); got != 6 {
		t.Errorf("federation.images_imported = %d, want 6", got)
	}
	if got := hub.Counter("federation.gossip_rounds").Value(); got != 2 {
		t.Errorf("federation.gossip_rounds = %d, want 2", got)
	}
}

// A quarantine raised in one cell poisons the image in every cell on
// the next round, including the cell that published it.
func TestGossipQuarantinePoisonsEveryCell(t *testing.T) {
	f, hub := testFederation(t)
	gossip(f)
	c, _ := f.Cell("c")
	if !c.Warehouse.Quarantine("derived-a", "checksum mismatch on clone read") {
		t.Fatal("quarantine refused")
	}
	st := gossip(f)
	if st.Poisoned != 2 || st.Imported != 0 {
		t.Fatalf("round after quarantine = %+v, want 2 cells poisoned", st)
	}
	for _, cell := range f.Cells() {
		reason, q := cell.Warehouse.QuarantineReason("derived-a")
		if !q || reason != "checksum mismatch on clone read" {
			t.Errorf("cell %s: derived-a quarantine = %q %v, want the origin's verdict", cell.Name, reason, q)
		}
	}
	if st := gossip(f); st.Poisoned != 0 {
		t.Errorf("re-gossip re-poisoned: %+v", st)
	}
	if got := hub.Counter("federation.images_poisoned").Value(); got != 2 {
		t.Errorf("federation.images_poisoned = %d, want 2", got)
	}
}

// A suspended cell and a cell whose shop is down neither export nor
// import; the live cells still exchange with each other.
func TestGossipSkipsSuspendedAndDownCells(t *testing.T) {
	for _, tc := range []struct {
		name string
		take func(f *Federation)
	}{
		{"suspended", func(f *Federation) { f.Suspend("c") }},
		{"down", func(f *Federation) {
			c, _ := f.Cell("c")
			c.Shop.Kill()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := testFederation(t)
			tc.take(f)
			st := gossip(f)
			if st.Cells != 2 || st.Imported != 2 {
				t.Fatalf("round = %+v, want 2 cells exchanging 2 images", st)
			}
			if got := derivedIn(f, "c"); len(got) != 1 || got[0] != "derived-c" {
				t.Errorf("out-of-service cell holds %v, want only its own derived-c", got)
			}
			for _, live := range []string{"a", "b"} {
				for _, n := range derivedIn(f, live) {
					if n == "derived-c" {
						t.Errorf("cell %s imported derived-c from an out-of-service cell", live)
					}
				}
			}
		})
	}
}
