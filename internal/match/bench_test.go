package match

import (
	"fmt"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/dag"
)

func BenchmarkEvaluateFigure3(b *testing.B) {
	g := invigoGraph(b)
	perf := cachedABC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Evaluate(g, perf)
		if !r.OK {
			b.Fatal(r.Reason)
		}
	}
}

func BenchmarkBestOver32Candidates(b *testing.B) {
	g := invigoGraph(b)
	var cands []Candidate
	for i := 0; i < 32; i++ {
		n := i % 4
		cands = append(cands, Candidate{
			ID:        string(rune('a' + i)),
			Hardware:  hw(64, 4096),
			Performed: cachedABC()[:n],
		})
	}
	_ = actions.Ops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := Best(hw(64, 4096), g, cands); !ok {
			b.Fatal("no match")
		}
	}
}

// userEnvGraph is the federation benchmark's request shape: the Figure
// 3 workspace plus a per-user environment package, personalized by
// user.
func userEnvGraph(tb testing.TB, user string) *dag.Graph {
	tb.Helper()
	g, err := dag.NewBuilder().
		Add("A", act(actions.OpInstallOS, "distro", "redhat-8.0")).
		Add("B", act(actions.OpInstallPackage, "name", "vnc-server"), "A").
		Add("C", act(actions.OpInstallPackage, "name", "web-file-manager"), "B").
		Add("D", act(actions.OpConfigureNetwork, "mac", "00:50:56:"+user, "ip", "10.1.0."+user), "C").
		Add("E", act(actions.OpCreateUser, "name", user), "D").
		Add("F", act(actions.OpMountFS, "source", "nfs:/home/"+user, "mountpoint", "/home/"+user), "E").
		Add("J", act(actions.OpInstallPackage, "name", "env-"+user), "F").
		Add("G", act(actions.OpConfigureService, "name", "vnc"), "F").
		Add("I", act(actions.OpStartService, "name", "file-manager"), "F").
		Add("H", act(actions.OpStartService, "name", "vnc"), "G").
		Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkBestOverDerivedCandidates is one federation bid: a user's
// request against a cell holding the seed image and 63 derived
// checkpoints of other users' full histories, plus the requesting
// user's own, which wins.
func BenchmarkBestOverDerivedCandidates(b *testing.B) {
	g := userEnvGraph(b, "u000")
	cands := []Candidate{{ID: "seed", Hardware: hw(64, 4096), Performed: cachedABC()}}
	for i := 0; i < 63; i++ {
		user := fmt.Sprintf("u%03d", i)
		ug := userEnvGraph(b, user)
		r := Evaluate(ug, nil)
		var hist []dag.Action
		for _, id := range r.Residual {
			n, _ := ug.Node(id)
			hist = append(hist, n.Action)
		}
		cands = append(cands, Candidate{ID: "derived-" + user, Hardware: hw(64, 4096), Performed: hist})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, _, ok := Best(hw(64, 4096), g, cands)
		if !ok || best.Candidate.ID != "derived-u000" {
			b.Fatalf("best = %q ok=%v, want derived-u000", best.Candidate.ID, ok)
		}
	}
}
