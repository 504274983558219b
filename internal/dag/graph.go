// Package dag implements the configuration directed-acyclic-graph model
// of VMPlants (paper §3.1): clients describe how a virtual machine is to
// be configured as a DAG whose nodes are configuration actions and whose
// edges impose ordering. A special START node denotes a blank machine,
// FINISH denotes the fully configured machine, and every action node has
// an implicit error node that may be overridden by a client-supplied
// error-handling policy.
//
// The DAG serves two purposes in the system: it is the specification the
// Production Process Planner executes, and it is the structure against
// which cached "golden" images are partially matched (package match).
package dag

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Reserved node identifiers.
const (
	StartID  = "START"
	FinishID = "FINISH"
)

// Target says where an action executes.
type Target int

const (
	// Guest actions run inside the virtual machine (e.g. create a user).
	Guest Target = iota
	// Host actions run on the hosting VMPlant (e.g. attach an ISO image
	// or a network interface to the VM).
	Host
)

// String returns "guest" or "host".
func (t Target) String() string {
	if t == Host {
		return "host"
	}
	return "guest"
}

// ParseTarget converts "guest"/"host" to a Target.
func ParseTarget(s string) (Target, error) {
	switch strings.ToLower(s) {
	case "guest", "":
		return Guest, nil
	case "host":
		return Host, nil
	}
	return Guest, fmt.Errorf("dag: unknown target %q", s)
}

// ErrorPolicy is a client-configurable error-handling sub-graph for one
// action node (paper §3.1: "a special error node is implicitly
// associated with each action node, and the client can also explicitly
// configure custom error-handling sub-graphs"). The implicit error node
// corresponds to the zero value: no retries, no handler, abort.
type ErrorPolicy struct {
	// Retries re-runs the failing action up to this many extra times.
	Retries int
	// Handler is a linear chain of recovery actions executed when
	// retries are exhausted.
	Handler []Action
	// Continue, when true, lets configuration proceed past the failure
	// after the handler runs; otherwise creation aborts.
	Continue bool
}

// Action describes one configuration operation: a named action from the
// action catalog with string parameters.
type Action struct {
	Op     string            // catalog operation name, e.g. "install-package"
	Target Target            // where it runs
	Params map[string]string // operation-specific parameters
}

// Key returns a canonical identity string for matching: the operation
// name plus its parameters in sorted order. Two actions with equal keys
// are considered the same operation by the partial-matching tests.
func (a Action) Key() string {
	if len(a.Params) == 0 {
		return a.Op
	}
	// Actions carry a handful of parameters; sorting their names in a
	// stack buffer leaves the result string as the only allocation.
	var buf [8]string
	keys := buf[:0]
	n := len(a.Op)
	for k, v := range a.Params {
		keys = append(keys, k)
		n += len(k) + len(v) + 2
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(n)
	b.WriteString(a.Op)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(a.Params[k])
	}
	return b.String()
}

// Param returns a parameter value, or "" when absent.
func (a Action) Param(name string) string { return a.Params[name] }

// Node is one vertex of a configuration DAG.
type Node struct {
	ID      string
	Action  Action
	OnError ErrorPolicy
}

// IsStart reports whether the node is the START marker.
func (n *Node) IsStart() bool { return n.ID == StartID }

// IsFinish reports whether the node is the FINISH marker.
func (n *Node) IsFinish() bool { return n.ID == FinishID }

// Graph is a configuration DAG. Construct with NewGraph or Builder; a
// Graph must pass Validate before being submitted or matched.
type Graph struct {
	nodes map[string]*Node
	order []string            // node insertion order (determinism)
	succ  map[string][]string // edges out, in insertion order
	pred  map[string][]string // edges in, in insertion order
}

// NewGraph returns a graph containing only the START and FINISH markers.
func NewGraph() *Graph {
	g := &Graph{
		nodes: make(map[string]*Node),
		succ:  make(map[string][]string),
		pred:  make(map[string][]string),
	}
	g.nodes[StartID] = &Node{ID: StartID, Action: Action{Op: "start"}}
	g.nodes[FinishID] = &Node{ID: FinishID, Action: Action{Op: "finish"}}
	g.order = []string{StartID, FinishID}
	return g
}

// AddNode inserts an action node. The ID must be unique and not a
// reserved marker.
func (g *Graph) AddNode(n *Node) error {
	if n.ID == "" {
		return errors.New("dag: node with empty ID")
	}
	if n.ID == StartID || n.ID == FinishID {
		return fmt.Errorf("dag: node ID %q is reserved", n.ID)
	}
	if _, ok := g.nodes[n.ID]; ok {
		return fmt.Errorf("dag: duplicate node ID %q", n.ID)
	}
	g.nodes[n.ID] = n
	g.order = append(g.order, n.ID)
	return nil
}

// AddEdge inserts a directed ordering constraint from → to. Both nodes
// must exist; duplicate edges are rejected.
func (g *Graph) AddEdge(from, to string) error {
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("dag: edge from unknown node %q", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("dag: edge to unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("dag: self edge on %q", from)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("dag: duplicate edge %s→%s", from, to)
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	return nil
}

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// Len reports the number of action nodes (START/FINISH excluded).
func (g *Graph) Len() int { return len(g.nodes) - 2 }

// NodeIDs returns all node IDs including markers, in insertion order.
func (g *Graph) NodeIDs() []string { return append([]string(nil), g.order...) }

// ActionIDs returns action node IDs (markers excluded), insertion order.
func (g *Graph) ActionIDs() []string {
	out := make([]string, 0, g.Len())
	for _, id := range g.order {
		if id != StartID && id != FinishID {
			out = append(out, id)
		}
	}
	return out
}

// Successors returns the IDs with an edge from id, in insertion order.
func (g *Graph) Successors(id string) []string {
	return append([]string(nil), g.succ[id]...)
}

// Predecessors returns the IDs with an edge to id, in insertion order.
func (g *Graph) Predecessors(id string) []string {
	return append([]string(nil), g.pred[id]...)
}

// EachPredecessor calls fn with every ID that has an edge to id, in
// insertion order, without copying the edge list (see Predecessors).
func (g *Graph) EachPredecessor(id string, fn func(pred string)) {
	for _, p := range g.pred[id] {
		fn(p)
	}
}

// Edges returns every edge as [from, to] pairs in deterministic order.
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for _, from := range g.order {
		for _, to := range g.succ[from] {
			out = append(out, [2]string{from, to})
		}
	}
	return out
}

// Validate checks the structural invariants the paper's model requires:
// START is the unique source, FINISH the unique sink, the graph is
// acyclic, and every action node lies on some START→FINISH path.
func (g *Graph) Validate() error {
	for _, id := range g.order {
		if id == StartID {
			if len(g.pred[id]) != 0 {
				return errors.New("dag: START has incoming edges")
			}
			continue
		}
		if id == FinishID {
			if len(g.succ[id]) != 0 {
				return errors.New("dag: FINISH has outgoing edges")
			}
			continue
		}
		if len(g.pred[id]) == 0 {
			return fmt.Errorf("dag: node %q unreachable (no incoming edges; connect it to START)", id)
		}
		if len(g.succ[id]) == 0 {
			return fmt.Errorf("dag: node %q is a dead end (no outgoing edges; connect it to FINISH)", id)
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	// Reachability from START and co-reachability from FINISH.
	fwd := g.reach(StartID, g.succ)
	back := g.reach(FinishID, g.pred)
	for _, id := range g.order {
		if !fwd[id] {
			return fmt.Errorf("dag: node %q not reachable from START", id)
		}
		if !back[id] {
			return fmt.Errorf("dag: FINISH not reachable from node %q", id)
		}
	}
	return nil
}

func (g *Graph) reach(from string, adj map[string][]string) map[string]bool {
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range adj[id] {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// TopoSort returns every node ID in a deterministic topological order
// (Kahn's algorithm; ties broken by node insertion order, so the same
// graph always sorts the same way). It returns an error naming a node on
// a cycle if the graph is cyclic.
func (g *Graph) TopoSort() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	for id := range g.nodes {
		indeg[id] = len(g.pred[id])
	}
	pos := make(map[string]int, len(g.order))
	for i, id := range g.order {
		pos[id] = i
	}
	var ready []string
	for _, id := range g.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var out []string
	for len(ready) > 0 {
		// Pick the ready node earliest in insertion order.
		best := 0
		for i := 1; i < len(ready); i++ {
			if pos[ready[i]] < pos[ready[best]] {
				best = i
			}
		}
		id := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, id)
		for _, next := range g.succ[id] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
	}
	if len(out) != len(g.nodes) {
		for _, id := range g.order {
			if indeg[id] > 0 {
				return nil, fmt.Errorf("dag: cycle involving node %q", id)
			}
		}
		return nil, errors.New("dag: cycle detected")
	}
	return out, nil
}

// Ancestors returns the set of node IDs from which id is reachable
// (excluding id itself).
func (g *Graph) Ancestors(id string) map[string]bool {
	seen := g.reach(id, g.pred)
	delete(seen, id)
	return seen
}

// Descendants returns the set of node IDs reachable from id (excluding
// id itself).
func (g *Graph) Descendants(id string) map[string]bool {
	seen := g.reach(id, g.succ)
	delete(seen, id)
	return seen
}

// Before reports whether the DAG orders a strictly before b (a is an
// ancestor of b).
func (g *Graph) Before(a, b string) bool {
	return g.Descendants(a)[b]
}

// IsLinearExtension reports whether seq — a sequence of action node IDs
// — is consistent with the DAG's partial order: for every pair of nodes
// both present in seq, if the DAG orders one before the other, seq lists
// them in that order. Nodes absent from the DAG make it false.
func (g *Graph) IsLinearExtension(seq []string) bool {
	index := make(map[string]int, len(seq))
	for i, id := range seq {
		if _, ok := g.nodes[id]; !ok {
			return false
		}
		if _, dup := index[id]; dup {
			return false
		}
		index[id] = i
	}
	for _, id := range seq {
		for anc := range g.Ancestors(id) {
			if anc == StartID {
				continue
			}
			if j, ok := index[anc]; ok && j > index[id] {
				return false
			}
		}
	}
	return true
}

// ActionKeys maps node ID → action key for every action node.
func (g *Graph) ActionKeys() map[string]string {
	out := make(map[string]string, g.Len())
	for _, id := range g.ActionIDs() {
		out[id] = g.nodes[id].Action.Key()
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes: make(map[string]*Node, len(g.nodes)),
		order: append([]string(nil), g.order...),
		succ:  make(map[string][]string, len(g.succ)),
		pred:  make(map[string][]string, len(g.pred)),
	}
	for id, n := range g.nodes {
		cp := *n
		if n.Action.Params != nil {
			cp.Action.Params = make(map[string]string, len(n.Action.Params))
			for k, v := range n.Action.Params {
				cp.Action.Params[k] = v
			}
		}
		if n.OnError.Handler != nil {
			cp.OnError.Handler = append([]Action(nil), n.OnError.Handler...)
		}
		c.nodes[id] = &cp
	}
	for id, s := range g.succ {
		c.succ[id] = append([]string(nil), s...)
	}
	for id, p := range g.pred {
		c.pred[id] = append([]string(nil), p...)
	}
	return c
}

// String renders a compact description: a topological listing of nodes
// and edge count, for logs and debugging.
func (g *Graph) String() string {
	topo, err := g.TopoSort()
	if err != nil {
		topo = g.order
	}
	var b strings.Builder
	b.WriteString("dag(")
	for i, id := range topo {
		if i > 0 {
			b.WriteString("→")
		}
		b.WriteString(id)
	}
	fmt.Fprintf(&b, ", %d edges)", len(g.Edges()))
	return b.String()
}
