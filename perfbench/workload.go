package main

import (
	"fmt"
	"math/rand"

	"repro/api"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/plan"
)

// The workload names accepted by --workload.
const (
	plainAdhoc    = "plain-adhoc"
	plusZipfChurn = "plus-zipf-churn"
	routerPlain   = "router-plain"
)

var workloadNames = []string{plainAdhoc, plusZipfChurn, routerPlain}

// Data graph parameters: generator.Synthetic(20000, 1.2, 50, seed), about
// 145k edges — the graph of the repository's match micro-benchmarks.
const (
	graphNodes  = 20000
	graphAlpha  = 1.2
	graphLabels = 50
)

// Sequence shape.
const (
	minPatternNodes = 3
	maxPatternNodes = 6
	patternRadius   = 2 // every pattern's diameter, hence every ball's radius

	// Op counts scale with --seconds by these rates, about what a 2-CPU
	// machine sustains, so a run's timed pass lasts roughly --seconds.
	// At 30 s plain-adhoc's 1200 matches give p99 twelve samples beyond it.
	adhocOpsPerSecond = 40
	churnOpsPerSecond = 110
	churnPool         = 64  // distinct match patterns, fits the 128-entry cache
	churnStanding     = 4   // standing queries registered in set-up
	churnZipfS        = 1.3 // zipf exponent of pattern popularity
	churnEdgesPerOp   = 2   // absent edges inserted then deleted per update
)

// churnGroup is the op mix of plus-zipf-churn, shuffled per group of 8.
var churnGroup = [8]opKind{opMatch, opMatch, opMatch, opMatch, opMatch, opUpdate, opUpdate, opPoll}

type opKind uint8

const (
	opMatch opKind = iota
	opUpdate
	opPoll
)

func (k opKind) String() string {
	return [...]string{"match", "update", "poll"}[k]
}

// op is one client request of a sequence.
type op struct {
	kind    opKind
	pattern int        // opMatch: index into sequence.patterns
	edges   [][2]int32 // opUpdate: edges absent from the base graph
	query   int        // opPoll: index into sequence.standing
}

// sequence is the fixed request stream one workload replays: everything a
// run sends is decided here, from the seed, before the deployment starts.
type sequence struct {
	mode     string   // api.ModePlain or api.ModePlus
	warm     string   // pattern of the set-up query that ends setup_s
	patterns []string // match patterns, graph text format
	standing []string // standing-query patterns registered in set-up
	ops      []op
}

// newSequence builds the op sequence of a workload. router-plain replays
// plain-adhoc's sequence exactly, so the two differ only in deployment.
func newSequence(workload string, g *graph.Graph, seed int64, seconds int) (*sequence, error) {
	switch workload {
	case plainAdhoc, routerPlain:
		return adhocSequence(g, seed, seconds*adhocOpsPerSecond), nil
	case plusZipfChurn:
		return churnSequence(g, seed, seconds*churnOpsPerSecond), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// patternSampler draws connected patterns of diameter 2 from g, each one
// distinct up to isomorphism from every pattern drawn before it. Fixing
// the diameter fixes the ball radius, and with it router-plain's halo, on
// every seed; about one sampled pattern in 500 has another diameter.
type patternSampler struct {
	g    *graph.Graph
	rng  *rand.Rand
	seen map[string]bool
}

func newPatternSampler(g *graph.Graph, rng *rand.Rand) *patternSampler {
	return &patternSampler{g: g, rng: rng, seen: make(map[string]bool)}
}

// next draws a pattern with the given number of nodes.
func (s *patternSampler) next(nodes int) string {
	for {
		q := generator.SamplePattern(s.g, generator.PatternOptions{
			Nodes: nodes, Alpha: 1.2, Seed: s.rng.Int63()})
		if d, connected := graph.Diameter(q); !connected || d != patternRadius {
			continue
		}
		key, _ := plan.Canon(q)
		if !s.seen[key] {
			s.seen[key] = true
			return graph.FormatString(q)
		}
	}
}

// sizes returns n pattern sizes, 3 to 6 nodes in equal shares, shuffled:
// stratified so the size mix does not vary with the seed.
func (s *patternSampler) sizes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = minPatternNodes + i%(maxPatternNodes-minPatternNodes+1)
	}
	s.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// adhocSequence is n plain-mode matches, each with a pattern not seen
// before in the run, so the result cache misses on every exact key.
func adhocSequence(g *graph.Graph, seed int64, n int) *sequence {
	ps := newPatternSampler(g, rand.New(rand.NewSource(seed)))
	s := &sequence{mode: api.ModePlain, warm: ps.next(minPatternNodes)}
	for i, size := range ps.sizes(n) {
		s.patterns = append(s.patterns, ps.next(size))
		s.ops = append(s.ops, op{kind: opMatch, pattern: i})
	}
	return s
}

// churnSequence is n Match+ ops in groups of 8: five zipf-drawn matches
// from a small pattern pool, two net-zero update batches and one
// standing-query delta poll, shuffled within the group.
func churnSequence(g *graph.Graph, seed int64, n int) *sequence {
	rng := rand.New(rand.NewSource(seed))
	ps := newPatternSampler(g, rng)
	s := &sequence{mode: api.ModePlus, warm: ps.next(minPatternNodes)}
	// Pattern sizes cycle through 3..6 by popularity rank, so the hottest
	// patterns have the same sizes on every seed.
	for i := 0; i < churnPool; i++ {
		s.patterns = append(s.patterns, ps.next(minPatternNodes+i%(maxPatternNodes-minPatternNodes+1)))
	}
	for _, size := range ps.sizes(churnStanding) {
		s.standing = append(s.standing, ps.next(size))
	}
	zipf := rand.NewZipf(rng, churnZipfS, 1, churnPool-1)
	polls := 0
	for len(s.ops) < n {
		group := churnGroup
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		for _, k := range group {
			o := op{kind: k}
			switch k {
			case opMatch:
				o.pattern = int(zipf.Uint64())
			case opUpdate:
				o.edges = absentEdges(g, rng, churnEdgesPerOp)
			case opPoll:
				o.query = polls % churnStanding
				polls++
			}
			s.ops = append(s.ops, o)
		}
	}
	s.ops = s.ops[:n]
	return s
}

// absentEdges draws k distinct directed non-loop edges missing from g.
func absentEdges(g *graph.Graph, rng *rand.Rand, k int) [][2]int32 {
	n := g.NumNodes()
	out := make([][2]int32, 0, k)
	for len(out) < k {
		e := [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		if e[0] == e[1] || g.HasEdge(e[0], e[1]) || containsEdge(out, e) {
			continue
		}
		out = append(out, e)
	}
	return out
}

func containsEdge(es [][2]int32, e [2]int32) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// updateBatch is the wire batch of an update op: insert every edge, then
// delete it again, so each published version equals the base graph.
func updateBatch(edges [][2]int32) []api.MutationJSON {
	muts := make([]api.MutationJSON, 0, 2*len(edges))
	for _, e := range edges {
		muts = append(muts, api.InsertEdge(e[0], e[1]))
	}
	for _, e := range edges {
		muts = append(muts, api.DeleteEdge(e[0], e[1]))
	}
	return muts
}
