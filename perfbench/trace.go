package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/simulation"
)

// span is one timed interval of a traced op. Spans of one op share Trace
// (the op's index); Parent is the enclosing span's ID, -1 for the root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced pass's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

// open starts a span now and returns its ID.
func (t *tracer) open(trace, parent int, name string) int {
	now := t.at(time.Now())
	return t.record1(span{Trace: trace, Parent: parent, Name: name, Start: now, End: now})
}

// close ends span id now.
func (t *tracer) close(id int) { t.spans[id].End = t.at(time.Now()) }

// record adds a span measured elsewhere.
func (t *tracer) record(trace, parent int, name string, start, end time.Time) int {
	return t.record1(span{Trace: trace, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
}

func (t *tracer) record1(s span) int {
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the time spans of one name took: their total duration,
// their total self time, and how many there were.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, durations and self times. A span's self
// time is its duration minus the part of it that its children cover;
// overlapping children are counted once, and children are clipped to
// their parent.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
		out[s.Name] = lt
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo // everything before cur is accounted for
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// replayer re-runs traced match ops through the layers' public functions,
// in the order engine.Match runs them on a cache miss, each timed as a
// span. It works on a twin snapshot of the store's current version, so it
// never touches the served snapshot's result cache or lazy indexes.
type replayer struct {
	store   *live.Store
	version uint64
	twin    *engine.Snapshot // nil until the first op
	indexed bool             // twin's prune index built

	balls graph.BallScratch // one reused ball scratch, as one exec worker has
	sim   simulation.Scratch

	// Totals over replayed ops.
	ops           int
	indexBuilds   int
	responseBytes int64
	ballsBuilt    int64 // one per pruned center
	ballsExamined int64 // balls the evaluator examined
	ballNodes     int64
	ballEdges     int64
	perfect       int64 // per-center perfect subgraphs before dedup
	ballWork      time.Duration
}

// match replays one match request and returns its answer.
func (r *replayer) match(tr *tracer, trace, parent int, req api.MatchRequest) (answer, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return answer{}, err
	}
	if cur := r.store.Current(); r.twin == nil || cur.ID() != r.version {
		r.twin, r.version, r.indexed = engine.NewSnapshot(cur.Graph()), cur.ID(), false
	}
	g := r.twin.Graph()
	r.ops++
	root := tr.open(trace, parent, "replay")
	defer tr.close(root)
	step := func(name string, f func()) {
		id := tr.open(trace, root, name)
		f()
		tr.close(id)
	}

	var q *graph.Graph
	step("api.decode", func() {
		var in api.MatchRequest
		if err = json.Unmarshal(body, &in); err == nil {
			q, err = r.twin.ParsePattern(in.PatternText)
		}
	})
	if err != nil {
		return answer{}, err
	}
	opts, _, err := req.Query.Compile()
	if err != nil {
		return answer{}, err
	}
	radius, connected := graph.Diameter(q)
	if !connected {
		return answer{}, fmt.Errorf("pattern is disconnected")
	}
	step("plan.canon", func() { plan.Canon(q) })

	qEff, classOf := q, []int32(nil)
	if opts.MinimizeQuery {
		step("core.minimize", func() { qEff, classOf = core.MinimizeQuery(q) })
	}
	var global simulation.Relation
	var centers []int32
	if opts.DualFilter {
		ok := false
		step("simulation.dual", func() { global, ok = simulation.Dual(qEff, g) })
		if ok {
			centers = global.DataNodes(g.NumNodes()).Slice()
		}
	} else {
		step("engine.candidates", func() { centers = r.twin.CandidateCenters(qEff).Slice() })
	}
	if !r.indexed {
		step("plan.index_build", func() { r.twin.PruneIndex() })
		r.indexed = true
		r.indexBuilds++
	}
	if len(centers) > 0 {
		var pst plan.PruneStats
		step("plan.prune", func() { centers = r.twin.PruneIndex().Prune(qEff, radius, centers, &pst) })
	}

	// Ball construction and evaluation alternate per center; their times
	// are summed and shown as two spans laid end to end in the loop.
	copts := core.Options{Radius: opts.Radius, MinimizeQuery: opts.MinimizeQuery,
		DualFilter: opts.DualFilter, ConnectivityPruning: opts.ConnectivityPruning}
	loop := tr.open(trace, root, "exec.serial")
	out := make([]*core.PerfectSubgraph, len(centers))
	var ballT, evalT time.Duration
	for i, c := range centers {
		t0 := time.Now()
		ball := r.twin.BallIn(&r.balls, c, radius)
		t1 := time.Now()
		ps, st := core.EvalPreparedBallIn(qEff, ball, c, copts, global, &r.sim)
		evalT += time.Since(t1)
		ballT += t1.Sub(t0)
		out[i] = ps
		r.ballNodes += int64(ball.G.NumNodes())
		r.ballEdges += int64(ball.G.NumEdges())
		r.ballsExamined += int64(st.BallsExamined)
		if ps != nil {
			r.perfect++
		}
	}
	r.ballsBuilt += int64(len(centers))
	r.ballWork += ballT + evalT
	ls := tr.t0.Add(time.Duration(tr.spans[loop].Start))
	tr.record(trace, loop, "graph.ball", ls, ls.Add(ballT))
	tr.record(trace, loop, "core.eval", ls.Add(ballT), ls.Add(ballT+evalT))
	tr.close(loop)

	var subs []*core.PerfectSubgraph
	var stats core.Stats
	step("core.merge", func() {
		subs = core.DedupSubgraphs(out, &stats)
		core.SortSubgraphs(subs)
		if opts.MinimizeQuery {
			for _, ps := range subs {
				core.ExpandRelation(ps, q, classOf)
			}
		}
	})
	var matches []api.SubgraphJSON
	step("api.encode", func() {
		matches = api.FromSubgraphs(subs)
		var b []byte
		if b, err = json.Marshal(api.MatchResponse{Matches: matches, Stats: api.FromStats(stats)}); err == nil {
			r.responseBytes += int64(len(b))
		}
	})
	if err != nil {
		return answer{}, err
	}
	return answerOf(matches)
}
