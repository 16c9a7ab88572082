package serve

import (
	"fmt"
	"strings"

	"incgraph/internal/bc"
	"incgraph/internal/cc"
	"incgraph/internal/dfs"
	"incgraph/internal/graph"
	"incgraph/internal/lcc"
	"incgraph/internal/sim"
	"incgraph/internal/sssp"
)

// Class is one query class of the registry: its name, what it needs of
// the graph and of Params, its state vectors and its constructor. Adding a
// class is its package, an adapter (adapters.go) and one entry of Classes.
type Class struct {
	// Name is the class's -algo(s) name and the routing key of its host.
	Name string
	// Undirected says the class refuses a directed graph.
	Undirected bool
	// Source and Pattern say the class reads Params.Src and Params.Pattern.
	Source, Pattern bool
	// Engine says the class repairs on the fixpoint engine, so its Stats
	// count inspections and split h from resume.
	Engine bool
	// Vecs names the classState fields the class persists, in the order
	// the state codec writes them: what Theorem 1's weak deducibility says
	// a restart must keep (see the adapters' doc).
	Vecs []string
	// blank builds the class on g, unrun.
	blank func(g *graph.Graph, p Params) Serveable
}

// Params are what a class's constructor reads besides the graph.
type Params struct {
	// Src is the source, an int so that it is range-checked before it
	// narrows to a 32-bit NodeID.
	Src int
	// Pattern is the pattern graph.
	Pattern *graph.Graph
}

// Classes is the registry, in the order the classes are listed to users.
var Classes = []Class{
	{Name: "sssp", Source: true, Engine: true, Vecs: []string{"Dist"},
		blank: func(g *graph.Graph, p Params) Serveable { return SSSP(sssp.Blank(g, graph.NodeID(p.Src))) }},
	{Name: "cc", Engine: true, Vecs: []string{"Labels", "TS", "Clock"},
		blank: func(g *graph.Graph, _ Params) Serveable { return CC(cc.Blank(g)) }},
	{Name: "sim", Pattern: true, Engine: true, Vecs: []string{"R", "Cnt", "TS", "Clock"},
		blank: func(g *graph.Graph, p Params) Serveable { return Sim(sim.Blank(g, p.Pattern)) }},
	{Name: "dfs", Vecs: []string{"First", "Last", "Parent"},
		blank: func(g *graph.Graph, _ Params) Serveable { return DFS(dfs.Blank(g)) }},
	{Name: "lcc", Undirected: true, Vecs: []string{"Deg", "Tri"},
		blank: func(g *graph.Graph, _ Params) Serveable { return LCC(lcc.Blank(g)) }},
	{Name: "bc", Undirected: true, Vecs: []string{"Articulation", "Block", "Num"},
		blank: func(g *graph.Graph, _ Params) Serveable { return BC(bc.Blank(g)) }},
}

// LookupClass returns the registry's class named name.
func LookupClass(name string) (Class, bool) {
	for _, c := range Classes {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}

// stateVecs is class name's Vecs. The adapters read it when they persist
// or restore, not when they are built: the registry builds them.
func stateVecs(name string) []string {
	c, _ := LookupClass(name)
	return c.Vecs
}

// ClassNames is the registry's names joined by "|", as usage texts list
// them.
func ClassNames() string {
	var names []string
	for _, c := range Classes {
		names = append(names, c.Name)
	}
	return strings.Join(names, "|")
}

// New builds the class on g from p, unrun, as Start wants it: Recompute
// runs its batch algorithm, RestoreState installs a checkpointed state.
// It refuses a graph or params the class cannot take.
func (c Class) New(g *graph.Graph, p Params) (Serveable, error) {
	switch {
	case c.Undirected && g.Directed():
		return nil, fmt.Errorf("%s needs an undirected graph", c.Name)
	case c.Source && (p.Src < 0 || p.Src >= g.NumNodes()):
		return nil, fmt.Errorf("%s: source %d out of range", c.Name, p.Src)
	case c.Pattern && p.Pattern == nil:
		return nil, fmt.Errorf("%s needs -pattern", c.Name)
	}
	return c.blank(g, p), nil
}
