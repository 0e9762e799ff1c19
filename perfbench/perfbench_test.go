package main

import (
	"encoding/hex"
	"path/filepath"
	"reflect"
	"testing"

	"repro/api"
	"repro/internal/generator"
)

func TestSequenceRepeatsPerSeed(t *testing.T) {
	g1 := generator.Synthetic(graphNodes, graphAlpha, graphLabels, 1)
	g2 := generator.Synthetic(graphNodes, graphAlpha, graphLabels, 2)
	for _, w := range workloadNames {
		a, err := newSequence(w, g1, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newSequence(w, g1, 1, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two op sequences", w)
		}
		c, _ := newSequence(w, g2, 2, 2)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", w)
		}
	}
	adhoc, _ := newSequence(plainAdhoc, g1, 1, 2)
	router, _ := newSequence(routerPlain, g1, 1, 2)
	if !reflect.DeepEqual(adhoc, router) {
		t.Error("router-plain does not replay plain-adhoc's sequence")
	}
}

func TestAdhocPatternsAreNew(t *testing.T) {
	g := generator.Synthetic(graphNodes, graphAlpha, graphLabels, 3)
	s, _ := newSequence(plainAdhoc, g, 3, 10)
	seen := map[string]bool{s.warm: true}
	for _, p := range s.patterns {
		if seen[p] {
			t.Fatalf("pattern repeats:\n%s", p)
		}
		seen[p] = true
	}
	if len(s.ops) != 10*adhocOpsPerSecond {
		t.Fatalf("%d ops, want %d", len(s.ops), 10*adhocOpsPerSecond)
	}
}

func TestChurnGroupsAndNetZeroBatches(t *testing.T) {
	g := generator.Synthetic(graphNodes, graphAlpha, graphLabels, 4)
	s, _ := newSequence(plusZipfChurn, g, 4, 2)
	if len(s.ops) != 2*churnOpsPerSecond {
		t.Fatalf("%d ops, want %d", len(s.ops), 2*churnOpsPerSecond)
	}
	for start := 0; start+8 <= len(s.ops); start += 8 {
		var n [3]int
		for _, o := range s.ops[start : start+8] {
			n[o.kind]++
			if o.kind == opUpdate {
				for _, e := range o.edges {
					if g.HasEdge(e[0], e[1]) || e[0] == e[1] {
						t.Fatalf("update edge %v is in the base graph", e)
					}
				}
				muts := updateBatch(o.edges)
				if len(muts) != 2*len(o.edges) || muts[0].Op != api.OpInsertEdge || muts[len(muts)-1].Op != api.OpDeleteEdge {
					t.Fatalf("batch %+v does not insert then delete", muts)
				}
			}
		}
		if n != [3]int{5, 2, 1} {
			t.Fatalf("group at %d has %v matches/updates/polls, want 5/2/1", start, n)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0: must fail
	}{
		{1000, 0.99, 990},
		{999, 0.99, 0},
		{200, 0.95, 190},
		{199, 0.95, 0},
		{20, 0.50, 10},
		{19, 0.50, 0},
	} {
		got, err := percentile(seq(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %g, want an error", c.p*100, c.n, got)
		case c.want != 0 && err != nil:
			t.Errorf("p%g of %d samples: %v", c.p*100, c.n, err)
		case got != c.want:
			t.Errorf("p%g of %d samples = %g, want %g", c.p*100, c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestAnswerDigestStable(t *testing.T) {
	answer := func(relOrder []string) []api.SubgraphJSON {
		rel := make(map[string][]int32)
		for _, k := range relOrder {
			rel[k] = []int32{7}
		}
		return []api.SubgraphJSON{{Center: 7, Nodes: []int32{3, 7}, Edges: [][2]int32{{3, 7}}, Rel: rel}}
	}
	a, err := answerDigest(answer([]string{"0", "1"}))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := answerDigest(answer([]string{"1", "0"}))
	if a != b {
		t.Error("digest depends on map insertion order")
	}
	// Pinned to the SHA-256 of
	// [{"center":7,"nodes":[3,7],"edges":[[3,7]],"rel":{"0":[7],"1":[7]}}]:
	// the digest is of the canonical wire rendering and nothing else.
	const want = "e853c1dac1e3372a1a96352cf9c6e6235e27d36e3a7b2bce7d3edf1a936963d5"
	if got := hex.EncodeToString(a[:]); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
	empty, _ := answerDigest(api.FromSubgraphs(nil))
	if empty == a {
		t.Error("different answers share a digest")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 20},
	}
	st := selfTimes(spans)
	for name, want := range map[string][2]int64{ // total, self
		"op": {100, 100 - 50 - 10},
		"a":  {30, 25},
		"b":  {30, 30},
		"c":  {30, 30},
		"d":  {5, 5},
	} {
		if got := st[name]; int64(got.Total) != want[0] || int64(got.Self) != want[1] || got.Count != 1 {
			t.Errorf("%s: total %d self %d count %d, want total %d self %d count 1",
				name, got.Total, got.Self, got.Count, want[0], want[1])
		}
	}
	if c := covered(0, 10, nil); c != 0 {
		t.Errorf("no children cover %d", c)
	}
}

// TestDriveSmall runs each workload's deployment, untraced and traced,
// against a small graph and requires every op to pass its checks.
func TestDriveSmall(t *testing.T) {
	g := generator.Synthetic(2000, 1.2, 20, 5)
	base := &baseGraph{g: g, nodes: g.NumNodes(), edges: g.NumEdges()}
	data := filepath.Join(t.TempDir(), "data.g")
	if err := writeGraph(data, g); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var seq *sequence
			if w == plusZipfChurn {
				seq = churnSequence(g, 5, 80)
			} else {
				seq = adhocSequence(g, 5, 20)
			}
			var passes []*pass
			for _, traced := range []bool{false, true} {
				d, err := deploy(w, data, seq, traced)
				if err != nil {
					t.Fatal(err)
				}
				var tr *tracer
				var rp *replayer
				if traced {
					tr, rp = newTracer(), &replayer{store: d.store}
				}
				p, err := drive(d, seq, base, tr, rp)
				d.close()
				if err != nil {
					t.Fatal(err)
				}
				passes = append(passes, p)
				if traced && rp.ops != len(p.matchMS) {
					t.Errorf("replayed %d of %d matches", rp.ops, len(p.matchMS))
				}
			}
			if err := verify(base, seq, passes); err != nil {
				t.Fatal(err)
			}
			for _, p := range passes {
				for _, f := range p.failures {
					t.Error(f)
				}
			}
			if passes[0].counts != passes[1].counts {
				t.Errorf("counts differ between passes: %+v vs %+v", passes[0].counts, passes[1].counts)
			}
			if passes[0].counts.Matches == 0 {
				t.Error("no matches: the check compares nothing")
			}
		})
	}
}
