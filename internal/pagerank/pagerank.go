// Package pagerank reproduces the paper's motivation experiment
// (Section I): PageRank run on different permutations of a web graph
// produces different enough ranks that pages swap positions from one
// run to the next — unless the per-page summation of incoming
// contributions is reproducible.
//
// The paper uses the SNAP web-Google graph (~900k pages); that dataset
// is not available offline, so a deterministic scale-free synthetic
// graph (preferential attachment) provides the same phenomenon:
// near-ties in rank whose order flips under permutation of the edge
// list.
package pagerank

import (
	"sort"

	"repro/internal/core"
	"repro/internal/workload"
)

// Graph is a directed graph as an edge list. Node ids are dense in
// [0, N).
type Graph struct {
	N      int
	Src    []uint32
	Dst    []uint32
	outDeg []uint32
}

// NewScaleFree generates a directed scale-free graph with n nodes and
// roughly m edges per new node, by preferential attachment: new nodes
// link to endpoints of existing edges (which picks targets proportional
// to degree). Deterministic in seed.
func NewScaleFree(n, m int, seed uint64) *Graph {
	if n < 2 || m < 1 {
		panic("pagerank: need n ≥ 2 and m ≥ 1")
	}
	r := workload.NewRNG(seed)
	g := &Graph{N: n}
	// Seed edge.
	g.addEdge(0, 1)
	g.addEdge(1, 0)
	for v := 2; v < n; v++ {
		for e := 0; e < m; e++ {
			var target uint32
			if r.Uint32n(4) == 0 {
				// Uniform attachment keeps the graph connected-ish and
				// adds low-degree targets.
				target = uint32(r.Intn(v))
			} else {
				// Preferential: pick the destination of a random
				// existing edge (degree-proportional).
				target = g.Dst[r.Intn(len(g.Dst))]
			}
			if int(target) == v {
				target = uint32(v - 1)
			}
			g.addEdge(uint32(v), target)
		}
	}
	g.finalize()
	return g
}

func (g *Graph) addEdge(s, d uint32) {
	g.Src = append(g.Src, s)
	g.Dst = append(g.Dst, d)
}

func (g *Graph) finalize() {
	g.outDeg = make([]uint32, g.N)
	for _, s := range g.Src {
		g.outDeg[s]++
	}
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Src) }

// Permute reorders the edge list (keeping pairs intact) — the physical
// reordering whose effect on floating-point PageRank the experiment
// measures.
func (g *Graph) Permute(seed uint64) *Graph {
	p := &Graph{
		N:   g.N,
		Src: append([]uint32(nil), g.Src...),
		Dst: append([]uint32(nil), g.Dst...),
	}
	workload.ShufflePairs(seed, p.Src, p.Dst)
	p.finalize()
	return p
}

// Config holds PageRank parameters.
type Config struct {
	// Damping is the damping factor (default 0.85).
	Damping float64
	// Iterations is the fixed iteration count (default 30).
	Iterations int
	// Reproducible selects reproducible per-node contribution sums.
	Reproducible bool
	// Levels is the repro level count (default 2).
	Levels int
}

func (c Config) withDefaults() Config {
	if c.Damping == 0 {
		c.Damping = 0.85
	}
	if c.Iterations == 0 {
		c.Iterations = 30
	}
	if c.Levels == 0 {
		c.Levels = 2
	}
	return c
}

// Run computes PageRank over the edge list in its stored order.
// The per-node sum of incoming contributions is a GROUPBY SUM keyed by
// destination node: with Reproducible set it uses repro accumulators
// and the result is independent of edge order; with floats it is not.
func Run(g *Graph, cfg Config) []float64 {
	cfg = cfg.withDefaults()
	n := g.N
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	contrib := make([]float64, n)

	var accs []core.Sum64
	if cfg.Reproducible {
		accs = make([]core.Sum64, n)
	}

	for it := 0; it < cfg.Iterations; it++ {
		// Contribution of each node per outgoing edge.
		for v := 0; v < n; v++ {
			if g.outDeg[v] > 0 {
				contrib[v] = ranks[v] / float64(g.outDeg[v])
			} else {
				contrib[v] = 0
			}
		}
		base := (1 - cfg.Damping) / float64(n)
		if cfg.Reproducible {
			for i := range accs {
				accs[i] = core.NewSum64(cfg.Levels)
			}
			for e := range g.Src {
				accs[g.Dst[e]].Add(contrib[g.Src[e]])
			}
			for v := 0; v < n; v++ {
				ranks[v] = base + cfg.Damping*accs[v].Value()
			}
		} else {
			sums := make([]float64, n)
			for e := range g.Src {
				sums[g.Dst[e]] += contrib[g.Src[e]]
			}
			for v := 0; v < n; v++ {
				ranks[v] = base + cfg.Damping*sums[v]
			}
		}
	}
	return ranks
}

// RankOrder returns node ids sorted by descending rank, ties broken by
// node id (so differences in the order reflect differences in the rank
// values themselves).
func RankOrder(ranks []float64) []uint32 {
	ids := make([]uint32, len(ranks))
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		ra, rb := ranks[ids[a]], ranks[ids[b]]
		if ra != rb {
			return ra > rb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// CountOrderChanges compares two rank orders and returns the number of
// positions holding a different page — the paper's "pages different
// enough to swap ranks with another page".
func CountOrderChanges(a, b []uint32) int {
	if len(a) != len(b) {
		panic("pagerank: comparing orders of different length")
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	return diff
}

// BitsEqual reports whether two rank vectors are bit-identical.
func BitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			// NaN-safe: bit compare via inequality of both orders.
			if !(a[i] != a[i] && b[i] != b[i]) {
				return false
			}
		}
	}
	return true
}
