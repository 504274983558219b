package warehouse

import (
	"bytes"
	"testing"
	"time"

	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// checkDescriptorBytes asserts the bytes an image serves are exactly
// what encoding its descriptor yields now, and that the volume's
// recorded size and sum for descriptor.xml still verify against them.
func checkDescriptorBytes(t *testing.T, w *Warehouse, im *Image) {
	t.Helper()
	got, err := im.DescriptorXML()
	if err != nil {
		t.Fatalf("%s: DescriptorXML: %v", im.Name, err)
	}
	want, err := encodeDescriptor(im.Descriptor())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: stored descriptor bytes differ from a fresh encode:\n got %s\nwant %s", im.Name, got, want)
	}
	path := im.descriptorPath()
	if sum := artifactSum(path, int64(len(got)), 0); im.Sums[path] != sum {
		t.Errorf("%s: recorded descriptor sum %016x, bytes give %016x", im.Name, im.Sums[path], sum)
	}
	if vs, ok := w.vol.Checksum(path); !ok || vs != im.Sums[path] {
		t.Errorf("%s: volume descriptor sum %016x (present %v), want %016x", im.Name, vs, ok, im.Sums[path])
	}
	if n, err := w.vol.Stat(path); err != nil || n != int64(len(got)) {
		t.Errorf("%s: volume descriptor size %d (%v), want %d", im.Name, n, err, len(got))
	}
}

// Descriptor bytes are encoded once, at publish, and served from then
// on: for a seed, a derived image, a gossip-imported copy and a
// scrub-repaired image they must stay byte-identical to a fresh encode.
func TestDescriptorBytesMatchFreshEncode(t *testing.T) {
	a, b := gossipPair(t)
	seed, _ := a.Lookup("seed")
	derived, _ := a.Lookup("derived-ckpt")
	checkDescriptorBytes(t, a, seed)
	checkDescriptorBytes(t, a, derived)

	if st := b.ImportCatalog(a.ExportCatalog(), time.Second); st.Imported != 1 {
		t.Fatalf("import stats = %+v, want 1 imported", st)
	}
	imported, _ := b.Lookup("derived-ckpt")
	checkDescriptorBytes(t, b, imported)
	if !bytes.Equal(imported.descXML, derived.descXML) {
		t.Error("imported copy's descriptor differs from the exporter's")
	}

	// Corrupt the derived image's descriptor file; the scrubber rebuilds
	// it from the in-memory image by replay.
	a.SetTelemetry(telemetry.New())
	a.corruptPath(derived.descriptorPath())
	k := sim.NewKernel()
	k.Spawn("scrub", func(p *sim.Proc) { a.ScrubPass(p) })
	k.Run(0)
	if a.IsQuarantined(derived.Name) {
		t.Fatal("derived image still quarantined after repair")
	}
	if a.ScrubStatsNow().Repairs != 1 {
		t.Fatalf("scrub stats = %+v, want one repair", a.ScrubStatsNow())
	}
	checkDescriptorBytes(t, a, derived)
}

// An image that was never published has no stored bytes; it encodes on
// demand (the plant's publish-image RPC path).
func TestDescriptorXMLOfUnpublishedImageEncodes(t *testing.T) {
	im, err := BuildGolden("draft", hw(), BackendVMware, history())
	if err != nil {
		t.Fatal(err)
	}
	got, err := im.DescriptorXML()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := encodeDescriptor(im.Descriptor())
	if !bytes.Equal(got, want) || im.descXML != nil {
		t.Errorf("unpublished image: got %d bytes (stored %v), want a fresh %d-byte encode", len(got), im.descXML != nil, len(want))
	}
}
