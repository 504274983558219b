// Package match implements the Production Process Planner's partial
// matching of configuration DAGs against cached "golden" images — the
// three tests the paper defines in §3.2:
//
//   - Subset Test: every operation performed on the cached image is also
//     required by the requested machine's DAG.
//   - Prefix Test: an operation may appear on the cached image only if
//     all of its DAG predecessors were also performed.
//   - Partial Order Test: the order in which the cached image's
//     operations were performed is a linear extension of the DAG's
//     partial order restricted to those operations.
//
// A successful match yields a residual plan: the topologically sorted
// actions still to execute after cloning (Figure 3 steps 3–5).
//
// Best sorts and indexes the request DAG once — nodes numbered in
// topological order, ancestor sets as bitsets, a key→nodes table — and
// evaluates every candidate image against that one index, so a bid
// over many cached images costs one topological sort, not one per
// image.
package match

import (
	"fmt"
	"math/bits"

	"vmplants/internal/core"
	"vmplants/internal/dag"
)

// Test identifies which of the paper's matching tests failed.
type Test string

// Failure reasons.
const (
	TestHardware     Test = "hardware"
	TestSubset       Test = "subset"
	TestPrefix       Test = "prefix"
	TestPartialOrder Test = "partial-order"
)

// Result reports the outcome of matching one cached image against one
// requested DAG.
type Result struct {
	// OK is true when all tests pass.
	OK bool
	// Failed names the first test that failed (zero when OK).
	Failed Test
	// Reason is a human-readable explanation of a failure.
	Reason string
	// Matched lists the DAG node IDs satisfied by the cached image, in
	// the image's performed order.
	Matched []string
	// Residual lists the DAG node IDs still to execute, in a
	// deterministic topological order consistent with Matched as prefix.
	Residual []string
}

// Score is the matcher's preference value: the number of requested
// operations the image already has performed. The PPP picks the
// feasible image with the highest score (most configuration work
// already done); ties break toward smaller disk (cheaper state).
func (r Result) Score() int { return len(r.Matched) }

// Evaluate runs the three DAG tests for a cached image whose recorded
// configuration history is performed (in execution order) against the
// requested graph g. Hardware is checked separately; see Best.
func Evaluate(g *dag.Graph, performed []dag.Action) Result {
	return newIndex(g).evaluate(performed, true)
}

// index is the per-request view of a DAG that every candidate is
// evaluated against, so matching n cached images sorts and indexes the
// request once instead of n times. It is built lazily and kept dense:
// action nodes are numbered in topological order, so node sets are
// bitsets and the lowest set bit is the earliest node in that order.
type index struct {
	g      *dag.Graph
	ids    []string // action node IDs in topological order
	cyclic bool     // the request DAG has no topological order

	// Built on the first candidate with a non-empty history; a blank
	// image needs only the topological order.
	words int
	anc   []uint64           // node i's action ancestors: anc[i*words:(i+1)*words]
	byKey map[string][]int32 // action key → nodes, in graph insertion order

	// Scratch reused across candidates.
	matched, seen []uint64
	bound         []int32
}

func newIndex(g *dag.Graph) *index {
	topo, err := g.TopoSort()
	if err != nil {
		return &index{cyclic: true}
	}
	ix := &index{g: g, ids: make([]string, 0, g.Len())}
	for _, id := range topo {
		if id != dag.StartID && id != dag.FinishID {
			ix.ids = append(ix.ids, id)
		}
	}
	return ix
}

// build fills the ancestor bitsets and the key index.
func (ix *index) build() {
	n := len(ix.ids)
	num := make(map[string]int32, n)
	for i, id := range ix.ids {
		num[id] = int32(i)
	}
	ix.words = (n + 63) / 64
	ix.anc = make([]uint64, n*ix.words)
	for i, id := range ix.ids {
		row := ix.ancestors(int32(i))
		ix.g.EachPredecessor(id, func(p string) {
			j, ok := num[p]
			if !ok {
				return // START
			}
			for w, v := range ix.ancestors(j) {
				row[w] |= v
			}
			add(row, j)
		})
	}
	ix.byKey = make(map[string][]int32, n)
	for _, id := range ix.g.ActionIDs() {
		node, _ := ix.g.Node(id)
		k := node.Action.Key()
		ix.byKey[k] = append(ix.byKey[k], num[id])
	}
	ix.matched = make([]uint64, ix.words)
	ix.seen = make([]uint64, ix.words)
}

// ancestors is node i's row of anc.
func (ix *index) ancestors(i int32) []uint64 {
	return ix.anc[int(i)*ix.words : int(i+1)*ix.words]
}

// missing returns the lowest node in need but not in have, or -1.
func missing(need, have []uint64) int32 {
	for w, v := range need {
		if d := v &^ have[w]; d != 0 {
			return int32(w*64 + bits.TrailingZeros64(d))
		}
	}
	return -1
}

func has(set []uint64, i int32) bool { return set[i/64]&(1<<(i%64)) != 0 }

func add(set []uint64, i int32) { set[i/64] |= 1 << (i % 64) }

// evaluate runs the three tests for one history. explain=false skips
// formatting failure reasons, for callers that discard failed results.
func (ix *index) evaluate(performed []dag.Action, explain bool) Result {
	if ix.cyclic {
		return Result{Failed: TestPartialOrder, Reason: "request DAG is cyclic"}
	}
	if len(performed) > 0 && ix.anc == nil {
		ix.build()
	}
	clear(ix.matched)
	ix.bound = ix.bound[:0]

	// Subset test: bind each performed action to a distinct DAG node.
	// When several unmatched nodes share the action's key, bind in an
	// ancestor-respecting order — prefer the first node whose DAG
	// predecessors are all matched already. A valid history lists every
	// node after its ancestors, so a greedy first-unmatched binding
	// could pick a same-key node whose prerequisites the image lacks
	// and spuriously fail the prefix test.
	for i, a := range performed {
		pick := int32(-1)
		for _, id := range ix.byKey[a.Key()] {
			if has(ix.matched, id) {
				continue
			}
			if pick < 0 {
				pick = id
			}
			if missing(ix.ancestors(id), ix.matched) < 0 {
				pick = id
				break
			}
		}
		if pick < 0 {
			r := Result{Failed: TestSubset}
			if explain {
				r.Reason = fmt.Sprintf("image operation %d (%s) is not required by the request", i, a.Op)
			}
			return r
		}
		add(ix.matched, pick)
		ix.bound = append(ix.bound, pick)
	}

	// Prefix test: every matched node's action ancestors must be
	// matched. The reason names the first missing one in topological
	// order.
	for _, id := range ix.bound {
		if anc := missing(ix.ancestors(id), ix.matched); anc >= 0 {
			r := Result{Failed: TestPrefix}
			if explain {
				r.Reason = fmt.Sprintf("image has %s but not its prerequisite %s", ix.ids[id], ix.ids[anc])
			}
			return r
		}
	}

	// Partial order test: performed order must be a linear extension.
	// The matched set is ancestor-closed, so that holds exactly when
	// every node's ancestors were performed before it.
	clear(ix.seen)
	for _, id := range ix.bound {
		if missing(ix.ancestors(id), ix.seen) >= 0 {
			r := Result{Failed: TestPartialOrder}
			if explain {
				r.Reason = "image operations were performed in an order the DAG forbids"
			}
			return r
		}
		add(ix.seen, id)
	}

	// Residual plan: topological order of unmatched nodes. Because the
	// matched set is ancestor-closed (prefix test), removing it leaves a
	// well-formed suffix; the topological order filtered to unmatched
	// nodes is a valid execution order.
	matched := make([]string, len(ix.bound))
	for i, id := range ix.bound {
		matched[i] = ix.ids[id]
	}
	var residual []string
	for i, id := range ix.ids {
		// A blank image matched nothing (and built no bitsets).
		if len(performed) == 0 || !has(ix.matched, int32(i)) {
			residual = append(residual, id)
		}
	}
	return Result{OK: true, Matched: matched, Residual: residual}
}

// Candidate pairs a cached image's identity with what the matcher needs
// to know about it.
type Candidate struct {
	// ID names the golden image (warehouse key).
	ID string
	// Hardware is the image's checkpointed hardware configuration.
	Hardware core.HardwareSpec
	// Performed is the image's recorded configuration history, in
	// execution order, starting from a blank machine.
	Performed []dag.Action
}

// Ranked is a candidate together with its evaluation.
type Ranked struct {
	Candidate Candidate
	Result    Result
}

// Best evaluates every candidate against the request and returns the
// feasible matches sorted best-first: highest score, then smallest disk,
// then lexicographically smallest ID for determinism. The boolean is
// false when no candidate passes all tests.
func Best(spec core.HardwareSpec, g *dag.Graph, cands []Candidate) (Ranked, []Ranked, bool) {
	var feasible []Ranked
	var ix *index
	for _, c := range cands {
		if !c.Hardware.Satisfies(spec) {
			continue
		}
		if ix == nil {
			ix = newIndex(g)
		}
		r := ix.evaluate(c.Performed, false)
		if !r.OK {
			continue
		}
		feasible = append(feasible, Ranked{Candidate: c, Result: r})
	}
	if len(feasible) == 0 {
		return Ranked{}, nil, false
	}
	sortRanked(feasible)
	return feasible[0], feasible, true
}

func sortRanked(rs []Ranked) {
	// Insertion sort: candidate lists are small and this avoids pulling
	// in sort for a three-key comparison.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && better(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func better(a, b Ranked) bool {
	if a.Result.Score() != b.Result.Score() {
		return a.Result.Score() > b.Result.Score()
	}
	if a.Candidate.Hardware.DiskMB != b.Candidate.Hardware.DiskMB {
		return a.Candidate.Hardware.DiskMB < b.Candidate.Hardware.DiskMB
	}
	return a.Candidate.ID < b.Candidate.ID
}

// TemplateEvaluate is the ablation baseline modeled on template-based
// provisioning (VMware VirtualCenter server templates, paper §5): a
// cached image is usable only when its configuration history covers the
// requested DAG *exactly* — same operations, nothing left to configure.
// There is no partial credit: the result is either a full match with an
// empty residual, or a miss.
func TemplateEvaluate(g *dag.Graph, performed []dag.Action) Result {
	r := Evaluate(g, performed)
	if !r.OK {
		return r
	}
	if len(r.Residual) != 0 {
		return Result{
			Failed: TestSubset,
			Reason: fmt.Sprintf("template match requires exact configuration; %d operations missing", len(r.Residual)),
		}
	}
	return r
}
