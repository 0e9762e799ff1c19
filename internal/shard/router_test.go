package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/generator"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/obs"
)

// fleet is a router deployment under test: N in-process shard servers, the
// router in front, and a single-node reference server over the same graph.
type fleet struct {
	router  *Router
	rc      *client.Client // against the router
	sc      *client.Client // against the single-node reference
	shardTS [][]*httptest.Server
}

func testRetry() client.RetryPolicy {
	return client.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// newShard starts one empty in-process shard server.
func newShard(t *testing.T) *httptest.Server {
	t.Helper()
	g, err := graph.ParseString("", graph.NewLabels())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.NewLiveServer(live.NewStore(g, live.Config{Workers: 2}),
		api.Config{Role: api.RoleShard}))
	t.Cleanup(ts.Close)
	return ts
}

// newFleet deploys k shards (replicas[s] servers each; default 1) plus the
// router and the reference server, both over identical copies of g built by
// build (called twice so no state is shared).
func newFleet(t *testing.T, build func() *graph.Graph, k, halo int, replicas map[int]int) *fleet {
	t.Helper()
	g := build()
	plan, err := BuildPlan(g, k, halo, StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{shardTS: make([][]*httptest.Server, k)}
	shards := make([][]string, k)
	for s := 0; s < k; s++ {
		n := replicas[s]
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			ts := newShard(t)
			f.shardTS[s] = append(f.shardTS[s], ts)
			shards[s] = append(shards[s], ts.URL)
		}
	}
	rt, err := NewRouter(live.NewStore(g, live.Config{Workers: 2}), Config{
		Plan:          plan,
		Shards:        shards,
		ShardTimeout:  5 * time.Second,
		Retry:         testRetry(),
		ProbeInterval: time.Hour, // probes run only when tests call probeOnce
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Push(context.Background()); err != nil {
		t.Fatal(err)
	}
	f.router = rt
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	f.rc = client.New(rts.URL)

	single := httptest.NewServer(api.NewLiveServer(live.NewStore(build(), live.Config{Workers: 2}),
		api.Config{}))
	t.Cleanup(single.Close)
	f.sc = client.New(single.URL)
	return f
}

func testPatterns(g *graph.Graph) []string {
	var pats []string
	for i := 0; i < 6; i++ {
		q := generator.SamplePattern(g, generator.PatternOptions{
			Nodes: 2 + i%2, Alpha: 1.1, Seed: int64(100 + i*131),
		})
		pats = append(pats, graph.FormatString(q))
	}
	return pats
}

func matchesJSON(t *testing.T, ms []api.SubgraphJSON) string {
	t.Helper()
	b, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertIdentical fans the same request to router and reference and
// requires byte-identical serialized match lists.
func (f *fleet) assertIdentical(t *testing.T, pat string, spec api.QuerySpec, label string) int {
	t.Helper()
	ctx := context.Background()
	got, err := f.rc.MatchText(ctx, pat, spec)
	if err != nil {
		t.Fatalf("%s: router match: %v", label, err)
	}
	want, err := f.sc.MatchText(ctx, pat, spec)
	if err != nil {
		t.Fatalf("%s: single-node match: %v", label, err)
	}
	if got.Partial != nil {
		t.Fatalf("%s: healthy fleet answered partial: %+v", label, got.Partial)
	}
	gj, wj := matchesJSON(t, got.Matches), matchesJSON(t, want.Matches)
	if gj != wj {
		t.Fatalf("%s: router diverges from single node\nrouter: %s\nsingle: %s", label, gj, wj)
	}
	return len(want.Matches)
}

// assertSameRanking checks a top-k response modulo the representative
// center: same length, same score sequence, same ranked node sets.
func (f *fleet) assertSameRanking(t *testing.T, pat string, k int, label string) {
	t.Helper()
	ctx := context.Background()
	spec := api.QuerySpec{Mode: api.ModePlus, TopK: k}
	got, err := f.rc.MatchText(ctx, pat, spec)
	if err != nil {
		t.Fatalf("%s: router: %v", label, err)
	}
	want, err := f.sc.MatchText(ctx, pat, spec)
	if err != nil {
		t.Fatalf("%s: single node: %v", label, err)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("%s: router ranked %d, single node %d", label, len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		gm, wm := &got.Matches[i], &want.Matches[i]
		if gm.Score == nil || wm.Score == nil || *gm.Score != *wm.Score {
			t.Fatalf("%s: rank %d scores diverge: %v vs %v", label, i, gm.Score, wm.Score)
		}
		gn, _ := json.Marshal(gm.Nodes)
		wn, _ := json.Marshal(wm.Nodes)
		if string(gn) != string(wn) {
			t.Fatalf("%s: rank %d node sets diverge: %s vs %s", label, i, gn, wn)
		}
	}
}

func buildSynthetic(n int, seed int64) func() *graph.Graph {
	return func() *graph.Graph { return generator.Synthetic(n, 1.2, 5, seed) }
}

func TestRouterByteIdenticalMatches(t *testing.T) {
	f := newFleet(t, buildSynthetic(80, 11), 3, 2, nil)
	g := generator.Synthetic(80, 1.2, 5, 11)
	total := 0
	for i, pat := range testPatterns(g) {
		for _, mode := range []string{api.ModePlain, api.ModePlus} {
			total += f.assertIdentical(t, pat, api.QuerySpec{Mode: mode},
				mode+" pattern "+pat)
			// Explicit radius 1 stays within the halo and must agree too.
			f.assertIdentical(t, pat, api.QuerySpec{Mode: mode, Radius: 1},
				mode+" r=1 pattern "+pat)
		}
		// Ranked top-k: the single node's top-k path dedups first-wins in
		// worker order, so the representative center of a duplicated
		// subgraph is not deterministic even between two single-node runs.
		// Compare scores and node sets, not bytes.
		f.assertSameRanking(t, pat, 3, "topk pattern "+pat)
		_ = i
	}
	if total == 0 {
		t.Fatal("sampled patterns never matched; the identity check was vacuous")
	}
}

func TestRouterMatchesAfterUpdates(t *testing.T) {
	f := newFleet(t, buildSynthetic(60, 7), 3, 2, nil)
	g := generator.Synthetic(60, 1.2, 5, 7)
	pats := testPatterns(g)
	ctx := context.Background()

	batches := [][]api.MutationJSON{
		// Edge churn across likely shard boundaries.
		{api.InsertEdge(0, 59), api.InsertEdge(59, 30), api.DeleteEdge(0, 59)},
		// New nodes, wired in.
		{api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(60, 61), api.InsertEdge(5, 60)},
		// Relabels: membership stays, label semantics change.
		{api.SetLabel(10, "l0"), api.SetLabel(11, "l4")},
		// Deletion: a node dies globally, halos shrink.
		{api.DeleteNode(30)},
	}

	for bi, batch := range batches {
		rres, err := f.rc.Update(ctx, batch...)
		if err != nil {
			t.Fatalf("batch %d via router: %v", bi, err)
		}
		if _, err := f.sc.Update(ctx, batch...); err != nil {
			t.Fatalf("batch %d via single node: %v", bi, err)
		}
		if rres.Version != uint64(bi+1) {
			t.Fatalf("router at version %d after %d batches", rres.Version, bi+1)
		}
		if len(rres.ShardVersions) != 3 {
			t.Fatalf("router reported shard versions for %d shards", len(rres.ShardVersions))
		}
		for _, pat := range pats {
			for _, mode := range []string{api.ModePlain, api.ModePlus} {
				f.assertIdentical(t, pat, api.QuerySpec{Mode: mode},
					mode+" after batch "+pat)
			}
		}
	}
	// Pattern naming the new label wiring must agree too.
	f.assertIdentical(t, "node a l0\nnode b l1\nedge a b", api.QuerySpec{Mode: api.ModePlus}, "new nodes")

	// No replica went stale: the whole fleet serves at the router's vector.
	h, err := f.rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != api.RoleRouter {
		t.Fatalf("router health %q role %q after updates", h.Status, h.Role)
	}
	for _, sh := range h.Shards {
		if sh.Serving != sh.Replicas {
			t.Fatalf("shard %d: %d/%d replicas serving after updates", sh.Shard, sh.Serving, sh.Replicas)
		}
	}
}

func TestRouterHaloExceeded(t *testing.T) {
	f := newFleet(t, buildSynthetic(40, 3), 2, 1, nil)
	// A 3-node path has diameter 2 > halo 1.
	pat := "node a l0\nnode b l1\nnode c l2\nedge a b\nedge b c"
	_, err := f.rc.MatchText(context.Background(), pat, api.QuerySpec{Mode: api.ModePlus})
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeHaloExceeded {
		t.Fatalf("want %s, got %v", api.CodeHaloExceeded, err)
	}
	// Same pattern with an explicit radius inside the halo is served.
	if _, err := f.rc.MatchText(context.Background(), pat,
		api.QuerySpec{Mode: api.ModePlus, Radius: 1}); err != nil {
		t.Fatalf("radius 1 within halo 1 must serve: %v", err)
	}
}

func TestRouterPartialResults(t *testing.T) {
	f := newFleet(t, buildSynthetic(60, 5), 3, 2, nil)
	g := generator.Synthetic(60, 1.2, 5, 5)
	pat := testPatterns(g)[0]
	ctx := context.Background()

	const dead = 1
	f.shardTS[dead][0].Close()

	// Without allow_partial: a structured 502, never a silent subset.
	_, err := f.rc.MatchText(ctx, pat, api.QuerySpec{Mode: api.ModePlus})
	var aerr *api.Error
	if !errors.As(err, &aerr) || aerr.Code != api.CodeShardUnavailable {
		t.Fatalf("want %s with a dead shard, got %v", api.CodeShardUnavailable, err)
	}

	// With allow_partial: 200, the partial marker names the dead shard, and
	// every returned match is a match the full deployment would return.
	got, err := f.rc.MatchText(ctx, pat, api.QuerySpec{Mode: api.ModePlus, AllowPartial: true})
	if err != nil {
		t.Fatalf("allow_partial must serve: %v", err)
	}
	if got.Partial == nil || len(got.Partial.FailedShards) != 1 || got.Partial.FailedShards[0] != dead {
		t.Fatalf("partial marker = %+v, want failed shard [%d]", got.Partial, dead)
	}
	if got.Partial.MissingNodes == 0 {
		t.Fatal("a dead shard owns centers; missing_nodes must be positive")
	}
	full, err := f.sc.MatchText(ctx, pat, api.QuerySpec{Mode: api.ModePlus})
	if err != nil {
		t.Fatal(err)
	}
	fullSet := make(map[string]bool, len(full.Matches))
	for i := range full.Matches {
		b, _ := json.Marshal(full.Matches[i])
		fullSet[string(b)] = true
	}
	owner := f.router.plan.Owner
	for i := range got.Matches {
		if owner[got.Matches[i].Center] == dead {
			t.Fatalf("dead shard's center %d in a partial result", got.Matches[i].Center)
		}
	}
	// Every surviving center the single node reports must still be present.
	for i := range full.Matches {
		if owner[full.Matches[i].Center] != dead {
			b, _ := json.Marshal(full.Matches[i])
			found := false
			for j := range got.Matches {
				gb, _ := json.Marshal(got.Matches[j])
				if string(gb) == string(b) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("surviving center %d missing from partial result", full.Matches[i].Center)
			}
		}
	}

	// The probe loop observes the dead shard; health degrades.
	f.router.probeOnce(ctx)
	h, err := f.rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("health %q with a dead shard, want degraded", h.Status)
	}
	if h.Shards[dead].Serving != 0 {
		t.Fatalf("dead shard reports %d serving replicas", h.Shards[dead].Serving)
	}
}

func TestRouterReplicaFailover(t *testing.T) {
	f := newFleet(t, buildSynthetic(50, 9), 2, 2, map[int]int{0: 2})
	g := generator.Synthetic(50, 1.2, 5, 9)
	pat := testPatterns(g)[0]

	// Kill replica 0 of shard 0: the fan-out falls over to replica 1 and
	// results stay byte-identical.
	f.shardTS[0][0].Close()
	f.assertIdentical(t, pat, api.QuerySpec{Mode: api.ModePlus}, "failover")

	f.router.probeOnce(context.Background())
	h, err := f.rc.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards[0].Serving != 1 || h.Shards[0].Replicas != 2 {
		t.Fatalf("shard 0 health %+v, want 1/2 serving", h.Shards[0])
	}
	if h.Status != "ok" {
		t.Fatalf("one live replica per shard still serves; health %q", h.Status)
	}
}

func TestRouterStreamMatchesSingleNode(t *testing.T) {
	f := newFleet(t, buildSynthetic(70, 13), 3, 2, nil)
	g := generator.Synthetic(70, 1.2, 5, 13)
	ctx := context.Background()
	for _, pat := range testPatterns(g)[:3] {
		var streamed []api.SubgraphJSON
		done, err := f.rc.MatchStream(ctx, api.MatchRequest{
			PatternText: pat, Query: api.QuerySpec{Mode: api.ModePlus},
		}, func(sj api.SubgraphJSON) error {
			streamed = append(streamed, sj)
			return nil
		})
		if err != nil {
			t.Fatalf("router stream: %v", err)
		}
		if done.Code != "" || done.Partial != nil {
			t.Fatalf("healthy stream ended %q partial=%+v", done.Code, done.Partial)
		}
		want, err := f.sc.MatchText(ctx, pat, api.QuerySpec{Mode: api.ModePlus})
		if err != nil {
			t.Fatal(err)
		}
		if len(streamed) != len(want.Matches) || done.Matches != len(want.Matches) {
			t.Fatalf("streamed %d (done says %d), single node has %d", len(streamed), done.Matches, len(want.Matches))
		}
		// Stream order is unspecified; compare as sets of serialized matches.
		set := make(map[string]int, len(streamed))
		for i := range streamed {
			b, _ := json.Marshal(streamed[i])
			set[string(b)]++
		}
		for i := range want.Matches {
			b, _ := json.Marshal(want.Matches[i])
			if set[string(b)] == 0 {
				t.Fatalf("single-node match missing from stream: %s", b)
			}
			set[string(b)]--
		}
	}
}

func TestRouterStandingQueries(t *testing.T) {
	f := newFleet(t, buildSynthetic(40, 17), 2, 2, nil)
	ctx := context.Background()
	pat := "node a l0\nnode b l1\nedge a b"

	// Standing queries live on the router's authoritative store and see
	// exactly the single-node semantics.
	qj, err := f.rc.RegisterText(ctx, pat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.rc.Update(ctx, api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(40, 41)); err != nil {
		t.Fatal(err)
	}
	delta, err := f.rc.PollDelta(ctx, qj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Version != 1 {
		t.Fatalf("standing query maintained to version %d, want 1", delta.Version)
	}
	// The new edge must match over the router too, identically to a fresh
	// single node that saw the same update.
	if _, err := f.sc.Update(ctx, api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(40, 41)); err != nil {
		t.Fatal(err)
	}
	n := f.assertIdentical(t, pat, api.QuerySpec{Mode: api.ModePlus}, "standing pattern")
	if n == 0 {
		t.Fatal("inserted l0->l1 edge must match")
	}
}

// TestRouterUpdateSurvivesCallerCancellation pins the high-severity failure
// mode: the authoritative store applies the batch first, so a client that
// disconnects (its request context cancelled) before the shard fan-out
// completes must not cancel the deliveries — that would eject every touched
// replica as terminally stale on one dropped connection.
func TestRouterUpdateSurvivesCallerCancellation(t *testing.T) {
	f := newFleet(t, buildSynthetic(50, 19), 3, 2, nil)
	ctx := context.Background()

	body, err := json.Marshal(api.UpdateRequest{Updates: []api.MutationJSON{
		api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(50, 51),
	}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", api.Prefix+"/update", bytes.NewReader(body))
	cctx, cancel := context.WithCancel(ctx)
	cancel() // the caller is gone before the fan-out even starts
	req = req.WithContext(cctx)
	w := httptest.NewRecorder()
	f.router.handleUpdate(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("update with a cancelled caller context: status %d, body %s", w.Code, w.Body)
	}

	// Every replica received the batch and stays admitted.
	f.router.probeOnce(ctx)
	h, err := f.rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("health %q after a cancelled-caller update, want ok", h.Status)
	}
	for _, sh := range h.Shards {
		if sh.Serving != sh.Replicas {
			t.Fatalf("shard %d: %d/%d serving after a cancelled-caller update", sh.Shard, sh.Serving, sh.Replicas)
		}
	}
	// And the fleet still answers byte-identically to a single node that
	// applied the same batch.
	if _, err := f.sc.Update(ctx, api.AddNode("l0"), api.AddNode("l1"), api.InsertEdge(50, 51)); err != nil {
		t.Fatal(err)
	}
	n := f.assertIdentical(t, "node a l0\nnode b l1\nedge a b",
		api.QuerySpec{Mode: api.ModePlus}, "after cancelled-caller update")
	if n == 0 {
		t.Fatal("inserted l0->l1 edge must match")
	}
}

// TestRouterCallerDeadlineKeepsReplicasAdmitted pins that a match fan-out
// torn down by the caller's own deadline is no verdict on the replicas:
// they stay admitted, so the next update does not terminally eject them.
func TestRouterCallerDeadlineKeepsReplicasAdmitted(t *testing.T) {
	f := newFleet(t, buildSynthetic(40, 23), 2, 2, map[int]int{0: 2, 1: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for s := range f.router.shards {
		if err := f.router.callShard(ctx, s, "match", obs.Span{},
			func(cctx context.Context, cl *client.Client) error {
				_, err := cl.Healthz(cctx)
				return err
			}); err == nil {
			t.Fatalf("shard %d: fan-out under a cancelled caller context must fail", s)
		}
	}
	for s, reps := range f.router.shards {
		for ri, rep := range reps {
			if !rep.available() {
				t.Fatalf("shard %d replica %d ejected by the caller's own cancellation (%s)", s, ri, rep.note)
			}
		}
	}
	// The fleet still serves, and an update keeps every replica admitted.
	if _, err := f.rc.Update(context.Background(), api.AddNode("l0")); err != nil {
		t.Fatal(err)
	}
	h, err := f.rc.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range h.Shards {
		if sh.Serving != sh.Replicas {
			t.Fatalf("shard %d: %d/%d serving after update", sh.Shard, sh.Serving, sh.Replicas)
		}
	}
}

// dropProxy forwards to a real shard, but while drop is set it swallows
// /v1/update responses after the shard applied the batch — the connection
// failure a flaky network produces at the worst possible moment.
func dropProxy(t *testing.T, backend string, drop *atomic.Bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			t.Error(err)
			return
		}
		out, err := http.NewRequestWithContext(req.Context(), req.Method,
			backend+req.URL.Path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		out.Header = req.Header.Clone()
		resp, err := http.DefaultClient.Do(out)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		rb, _ := io.ReadAll(resp.Body)
		if drop.Load() && strings.HasSuffix(req.URL.Path, "/update") {
			panic(http.ErrAbortHandler) // applied, but the caller never hears back
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(rb)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterUpdateDropAfterApplyNotStale pins two behaviors at once: the
// update fan-out must not retry at the client level (a replayed batch
// double-applies and the replica lands at want+1), and a delivery whose
// response is lost after the shard applied the batch must be resolved by
// asking the replica its actual version — not by terminal ejection.
func TestRouterUpdateDropAfterApplyNotStale(t *testing.T) {
	g := generator.Synthetic(30, 1.2, 4, 21)
	plan, err := BuildPlan(g, 1, 2, StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	shardTS := newShard(t)
	var drop atomic.Bool
	proxy := dropProxy(t, shardTS.URL, &drop)
	rt, err := NewRouter(live.NewStore(g, live.Config{Workers: 2}), Config{
		Plan:          plan,
		Shards:        [][]string{{proxy.URL}},
		ShardTimeout:  5 * time.Second,
		Retry:         testRetry(),
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Push(ctx); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	rc := client.New(rts.URL)

	drop.Store(true)
	if _, err := rc.Update(ctx, api.AddNode("l0")); err != nil {
		t.Fatalf("router update: %v", err)
	}
	drop.Store(false)

	rep := rt.shards[0][0]
	if rep.isStale() {
		t.Fatalf("replica terminally ejected after a drop-after-apply delivery: %s", rep.note)
	}
	if !rep.available() {
		t.Fatalf("replica held out after a verified delivery: %s", rep.note)
	}
	// The shard applied the batch exactly once: a second update advances the
	// version vector in lockstep and the probe agrees.
	res, err := rc.Update(ctx, api.AddNode("l1"))
	if err != nil {
		t.Fatal(err)
	}
	rt.probeOnce(ctx)
	if !rep.available() {
		t.Fatalf("probe ejected the replica after clean deliveries: %s", rep.note)
	}
	h, err := rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Shards[0].Version != res.ShardVersions[0] {
		t.Fatalf("router vector %d, response says %d", h.Shards[0].Version, res.ShardVersions[0])
	}
}

// TestRouterRejectsReservedLabels pins that no client can forge the shard
// filler (or any NUL-carrying marker) through the router: a member node
// labelled as filler would be indistinguishable from halo padding.
func TestRouterRejectsReservedLabels(t *testing.T) {
	f := newFleet(t, buildSynthetic(30, 27), 2, 1, nil)
	ctx := context.Background()
	for _, muts := range [][]api.MutationJSON{
		{api.AddNode(FillerLabel)},
		{api.SetLabel(0, FillerLabel)},
		{api.AddNode("ok"), api.SetLabel(1, "a\x00b")},
	} {
		_, err := f.rc.Update(ctx, muts...)
		var aerr *api.Error
		if !errors.As(err, &aerr) || aerr.Code != api.CodeInvalidMutation {
			t.Fatalf("NUL label %+v must be rejected with %s, got %v", muts, api.CodeInvalidMutation, err)
		}
	}
	// The rejection happened before the authoritative store applied anything.
	h, err := f.rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 0 {
		t.Fatalf("rejected batches bumped the store to version %d", h.Version)
	}
}

func TestRouterRejectsUnderflowedPlans(t *testing.T) {
	g := generator.Synthetic(20, 1.2, 3, 1)
	plan, err := BuildPlan(g, 2, 1, StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(live.NewStore(g, live.Config{}), Config{
		Plan:   plan,
		Shards: [][]string{{"http://s0"}}, // plan says 2
	}); err == nil {
		t.Fatal("shard-count mismatch must be rejected")
	}
	if _, err := NewRouter(live.NewStore(g, live.Config{}), Config{
		Plan:   plan,
		Shards: [][]string{{"http://s0"}, {}},
	}); err == nil {
		t.Fatal("replica-less shard must be rejected")
	}
}

// TestRouterMatchesSingleNodeProperty sweeps generated graphs, fleet sizes
// and sampled patterns, requiring router answers byte-identical to a single
// node. It pins the halo dedup rule: a shard sees the balls of its halo
// centers cut at the halo edge, so if it deduped across centers, such a
// halo center could win a duplicate over an owned center and the router's
// ownership filter would drop the subgraph.
func TestRouterMatchesSingleNodeProperty(t *testing.T) {
	total := 0
	for _, n := range []int{100, 200} {
		for seed := int64(1); seed <= 6; seed++ {
			for _, k := range []int{2, 3} {
				f := newFleet(t, buildSynthetic(n, seed), k, 2, nil)
				g := generator.Synthetic(n, 1.2, 5, seed)
				for ps := int64(1); ps <= 8; ps++ {
					pat := graph.FormatString(generator.SamplePattern(g, generator.PatternOptions{
						Nodes: 3, Alpha: 1.1, Seed: ps,
					}))
					for _, mode := range []string{api.ModePlain, api.ModePlus} {
						total += f.assertIdentical(t, pat, api.QuerySpec{Mode: mode},
							fmt.Sprintf("n=%d seed=%d k=%d %s pattern seed %d", n, seed, k, mode, ps))
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("sampled patterns never matched; the property was vacuous")
	}
}

// gateTransport holds every shard /v1/match call until gate closes or the
// call's context ends, so a router match stays in flight on demand.
type gateTransport struct{ gate chan struct{} }

func (t gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, api.Prefix+"/match") {
		select {
		case <-t.gate:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRouterMatchInFlightRecorder pins that router matches run through the
// same flight recorder as a standalone node: an in-flight fan-out is listed
// and cancellable by request id (the caller sees 408 cancelled, and the
// cancellation ejects no replica), and completed matches land in the recent
// ring under the client's X-Request-Id.
func TestRouterMatchInFlightRecorder(t *testing.T) {
	g := generator.Synthetic(60, 1.2, 5, 29)
	plan, err := BuildPlan(g, 2, 2, StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	rt, err := NewRouter(live.NewStore(g, live.Config{Workers: 2}), Config{
		Plan:          plan,
		Shards:        [][]string{{newShard(t).URL}, {newShard(t).URL}},
		ShardTimeout:  5 * time.Second,
		Retry:         testRetry(),
		ProbeInterval: time.Hour,
		HTTPClient:    &http.Client{Transport: gateTransport{gate: gate}},
		API:           api.Config{EnableDebug: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rt.Push(ctx); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	rc := client.New(rts.URL)
	pat := testPatterns(g)[0]
	spec := api.QuerySpec{Mode: api.ModePlus}

	errc := make(chan error, 1)
	go func() {
		_, err := rc.MatchText(client.WithRequestID(ctx, "router-held"), pat, spec)
		errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		active, err := rc.ActiveQueries(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(active) == 1 && active[0].RequestID == "router-held" && active[0].Kind == "match" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("held router match never listed in flight: %+v", active)
		}
	}
	if err := rc.CancelQuery(ctx, "router-held"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	var aerr *api.Error
	if err := <-errc; !errors.As(err, &aerr) || aerr.Status != http.StatusRequestTimeout || aerr.Code != api.CodeCancelled {
		t.Fatalf("cancelled router match answered %v, want 408 %s", err, api.CodeCancelled)
	}
	for s, reps := range rt.shards {
		for ri, rep := range reps {
			if !rep.available() {
				t.Fatalf("shard %d replica %d ejected by an operator cancel (%s)", s, ri, rep.note)
			}
		}
	}

	close(gate)
	resp, err := rc.MatchText(client.WithRequestID(ctx, "router-done"), pat, spec)
	if err != nil {
		t.Fatal(err)
	}
	recent, err := rc.RecentQueries(ctx)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := map[string]api.QueryRecordJSON{}
	for _, rec := range recent {
		outcomes[rec.RequestID] = rec
	}
	if rec := outcomes["router-held"]; rec.Outcome != "cancelled" {
		t.Fatalf("cancelled match recorded as %+v", rec)
	}
	if rec := outcomes["router-done"]; rec.Outcome != "ok" || rec.Kind != "match" || rec.Matches != len(resp.Matches) {
		t.Fatalf("completed match recorded as %+v, want ok with %d matches", rec, len(resp.Matches))
	}
}

// TestRouterPushRequiresShardRole pins that a fleet member not started as
// a shard is refused at push: only a shard-role server answers
// undeduplicated, and any other would silently lose subgraphs in the merge.
func TestRouterPushRequiresShardRole(t *testing.T) {
	g := generator.Synthetic(30, 1.2, 4, 31)
	plan, err := BuildPlan(g, 1, 2, StrategyBFS)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := graph.ParseString("", graph.NewLabels())
	if err != nil {
		t.Fatal(err)
	}
	standalone := httptest.NewServer(api.NewLiveServer(live.NewStore(empty, live.Config{}), api.Config{}))
	t.Cleanup(standalone.Close)
	rt, err := NewRouter(live.NewStore(g, live.Config{}), Config{
		Plan:   plan,
		Shards: [][]string{{standalone.URL}},
		Retry:  testRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Push(context.Background()); err == nil || !strings.Contains(err.Error(), api.RoleShard) {
		t.Fatalf("push to a standalone-role server: %v, want a role error", err)
	}
}
