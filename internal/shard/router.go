package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
)

// Config configures a Router.
type Config struct {
	// Plan is the partition plan; it must cover the store's initial graph.
	// The router owns it afterwards (ExtendTo runs on every update).
	Plan *Plan
	// Shards lists, per shard index, the base URLs of that shard's
	// replicas, tried in order. len(Shards) must equal Plan.K and every
	// shard needs at least one replica.
	Shards [][]string
	// ShardTimeout bounds each fan-out request to one replica (default 10s).
	ShardTimeout time.Duration
	// Retry is the per-replica retry policy of the fan-out clients; the
	// zero value retries twice with the client defaults.
	Retry client.RetryPolicy
	// PushChunk caps the mutations per initial-push batch (default 25000).
	PushChunk int
	// ProbeInterval paces the health-probe loop started by StartProbes
	// (default 5s).
	ProbeInterval time.Duration
	// HTTPClient, when set, underlies every fan-out client (tests inject
	// httptest transports).
	HTTPClient *http.Client
	// API configures the router's /v1 server (api.NewRouterServer): the
	// same middleware, flight recorder, tracer and limits as a standalone
	// node. Role is forced to RoleRouter. With EnableDebug, router matches
	// appear in /v1/debug/queries and the fan-out spans join each
	// request's trace.
	API api.Config
}

// replica is one fan-out target: a member of one shard's replica set.
type replica struct {
	addr string
	cl   *client.Client // retrying client for idempotent calls (match, healthz)
	upCl *client.Client // no-retry client for /v1/update: a replayed batch double-applies

	mu      sync.Mutex
	healthy bool // reachable per the last probe or request
	stale   bool // version skew: missed or double-applied a batch; terminal
	note    string
}

func (rep *replica) available() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.healthy && !rep.stale
}

func (rep *replica) isStale() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.stale
}

func (rep *replica) setHealthy(ok bool, note string) {
	rep.mu.Lock()
	rep.healthy, rep.note = ok, note
	rep.mu.Unlock()
}

// markStale ejects the replica permanently: its version diverged from the
// router's vector, so its results can no longer be trusted. Recovery means
// wiping and re-pushing the shard, which is an operator action.
func (rep *replica) markStale(note string) {
	rep.mu.Lock()
	rep.stale, rep.note = true, note
	rep.mu.Unlock()
}

// Router is the scatter/gather tier over a fleet of plain strongsimd
// shards, the api.Fanout behind its /v1 server (Handler). It owns the
// authoritative global graph in a live.Store — updates apply there first
// (which also maintains standing queries with exact single-node semantics)
// and then fan out to the shards as diff batches — while matches fan out
// to every shard and merge per-center results byte-identically to a
// single-node server over the same graph.
type Router struct {
	store   *live.Store
	plan    *Plan
	cfg     Config
	handler http.Handler

	shards  [][]*replica
	metrics []*shardMetrics

	// mu guards the routing state match requests snapshot: the ownership
	// array, the per-shard member bitmaps, and the version vector.
	mu      sync.RWMutex
	owner   []int32
	members [][]bool
	want    []uint64

	// upMu serializes updates (store apply + member recompute + fan-out)
	// and the probe loop, so probes never read a shard mid-batch and
	// conclude version skew.
	upMu sync.Mutex

	probeStop chan struct{}
	probeDone chan struct{}
}

type shardMetrics struct {
	latency   *obs.Histogram // fan-out request latency against this shard
	failovers *obs.Counter   // replica attempts that failed and moved on
	lost      *obs.Counter   // fan-outs where every replica failed
}

var (
	routerPartials = obs.Default.Counter("router_partial_responses_total",
		"degraded scatter/gather responses served with a partial marker")
	routerUnavailable = obs.Default.Counter("router_unavailable_total",
		"requests failed with shard_unavailable")
)

// NewRouter builds a router over an authoritative store and a shard fleet.
// The shards are assumed empty; call Push before serving.
func NewRouter(store *live.Store, cfg Config) (*Router, error) {
	g := store.Current().Graph()
	if cfg.Plan == nil {
		return nil, fmt.Errorf("shard: router needs a plan")
	}
	if err := cfg.Plan.Validate(g.NumNodes()); err != nil {
		return nil, err
	}
	if len(cfg.Shards) != cfg.Plan.K {
		return nil, fmt.Errorf("shard: plan has %d shards, config lists %d replica sets",
			cfg.Plan.K, len(cfg.Shards))
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Second
	}
	if cfg.PushChunk == 0 {
		cfg.PushChunk = 25000
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 5 * time.Second
	}
	if cfg.Retry.MaxAttempts < 2 {
		cfg.Retry = client.RetryPolicy{MaxAttempts: 3}
	}
	r := &Router{
		store:   store,
		plan:    cfg.Plan,
		cfg:     cfg,
		owner:   cfg.Plan.Owner,
		members: cfg.Plan.Members(g),
		want:    make([]uint64, cfg.Plan.K),
	}
	for s, addrs := range cfg.Shards {
		if len(addrs) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", s)
		}
		reps := make([]*replica, 0, len(addrs))
		for _, addr := range addrs {
			opts := []client.Option{client.WithRetryPolicy(cfg.Retry)}
			var upOpts []client.Option // no retry policy: update batches are not idempotent
			if cfg.HTTPClient != nil {
				opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
				upOpts = append(upOpts, client.WithHTTPClient(cfg.HTTPClient))
			}
			reps = append(reps, &replica{
				addr:    addr,
				cl:      client.New(addr, opts...),
				upCl:    client.New(addr, upOpts...),
				healthy: true,
			})
		}
		r.shards = append(r.shards, reps)
		si := strconv.Itoa(s)
		r.metrics = append(r.metrics, &shardMetrics{
			latency: obs.Default.Histogram("router_shard_seconds",
				"fan-out request latency by shard", obs.DefBuckets(), "shard", si),
			failovers: obs.Default.Counter("router_shard_failovers_total",
				"replica attempts that failed and fell over to the next replica", "shard", si),
			lost: obs.Default.Counter("router_shard_lost_total",
				"fan-outs for which every replica of the shard failed", "shard", si),
		})
	}
	r.handler = api.NewRouterServer(store, r, cfg.API)
	return r, nil
}

// Push brings every (empty) shard replica to its halo-extended subgraph of
// the store's current graph. It fails fast on a replica that is
// unreachable, not empty, not running as a shard (api.RoleShard), or
// rejects a batch — a half-pushed fleet must not serve.
func (r *Router) Push(ctx context.Context) error {
	g := r.store.Current().Graph()
	r.mu.RLock()
	members := r.members
	r.mu.RUnlock()

	nrep := 0
	for _, reps := range r.shards {
		nrep += len(reps)
	}
	var wg sync.WaitGroup
	errs := make([]error, nrep) // one slot per replica: goroutines never share one
	i := 0
	for s, reps := range r.shards {
		batches := InitialBatches(g, members[s], r.cfg.PushChunk)
		r.mu.Lock()
		r.want[s] = uint64(len(batches))
		r.mu.Unlock()
		for _, rep := range reps {
			wg.Add(1)
			go func(s, i int, rep *replica, batches [][]api.MutationJSON) {
				defer wg.Done()
				if err := r.pushReplica(ctx, rep, batches); err != nil {
					errs[i] = fmt.Errorf("shard %d replica %s: %w", s, rep.addr, err)
				}
			}(s, i, rep, batches)
			i++
		}
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *Router) pushReplica(ctx context.Context, rep *replica, batches [][]api.MutationJSON) error {
	hctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	h, err := rep.cl.Healthz(hctx)
	cancel()
	if err != nil {
		return fmt.Errorf("probing: %w", err)
	}
	if h.Nodes != 0 || h.Version != 0 {
		return fmt.Errorf("not empty (%d nodes at version %d); shards must start fresh", h.Nodes, h.Version)
	}
	if h.Role != api.RoleShard {
		// Only a shard-role server answers undeduplicated; any other would
		// let a halo center win a duplicate the merge then drops.
		return fmt.Errorf("role %q, want %q (strongsimd -role shard)", h.Role, api.RoleShard)
	}
	for i, batch := range batches {
		bctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
		res, err := rep.upCl.Update(bctx, batch...)
		cancel()
		if err != nil {
			return fmt.Errorf("push batch %d/%d: %w", i+1, len(batches), err)
		}
		if res.Version != uint64(i+1) {
			return fmt.Errorf("push batch %d/%d: replica at version %d, want %d",
				i+1, len(batches), res.Version, i+1)
		}
	}
	return nil
}

// StartProbes runs the periodic health-probe loop until Close (or ctx
// cancellation): every replica is probed over /v1/healthz, unreachable
// replicas are ejected from fan-outs until a later probe readmits them, and
// replicas whose reported version diverges from the router's version vector
// are ejected permanently as stale.
func (r *Router) StartProbes(ctx context.Context) {
	r.probeStop = make(chan struct{})
	r.probeDone = make(chan struct{})
	go func() {
		defer close(r.probeDone)
		t := time.NewTicker(r.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-r.probeStop:
				return
			case <-t.C:
				r.probeOnce(ctx)
			}
		}
	}()
}

// Close stops the probe loop (if started).
func (r *Router) Close() {
	if r.probeStop != nil {
		close(r.probeStop)
		<-r.probeDone
		r.probeStop = nil
	}
}

// probeOnce probes every replica once. It serializes against updates so a
// shard is never read between the router's version bump and the batch
// landing.
func (r *Router) probeOnce(ctx context.Context) {
	r.upMu.Lock()
	defer r.upMu.Unlock()
	r.mu.RLock()
	want := append([]uint64(nil), r.want...)
	r.mu.RUnlock()
	var wg sync.WaitGroup
	for s, reps := range r.shards {
		for _, rep := range reps {
			wg.Add(1)
			go func(s int, rep *replica) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
				defer cancel()
				h, err := rep.cl.Healthz(pctx)
				switch {
				case err != nil:
					rep.setHealthy(false, err.Error())
				case h.Version != want[s]:
					rep.markStale(fmt.Sprintf("version %d, router expects %d", h.Version, want[s]))
				default:
					rep.setHealthy(true, "")
				}
			}(s, rep)
		}
	}
	wg.Wait()
}

// Handler returns the router's /v1 server: an api.NewRouterServer over the
// authoritative store that answers matches, updates and the health summary
// through the router and every other route locally.
func (r *Router) Handler() http.Handler { return r.handler }

// handleUpdate serves one /v1/update request through the router's server.
func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request) {
	r.handler.ServeHTTP(w, req)
}

// Halo implements api.Fanout: a shard holds every ball of radius at most
// the plan's halo around the centers it owns.
func (r *Router) Halo() int { return r.plan.Halo }

// shardRequest strips a match request down to what shards evaluate: the
// pattern, mode, radius and planner opt-out (each shard prunes and caches
// against its own slice). Ranking, limits and statistics are router-side
// concerns — a shard cannot cut to a global top-k or limit without seeing
// the other shards' results.
func shardRequest(req *api.MatchRequest) api.MatchRequest {
	return api.MatchRequest{
		Pattern:     req.Pattern,
		PatternText: req.PatternText,
		Query: api.QuerySpec{Mode: req.Query.Mode, Radius: req.Query.Radius,
			NoPlan: req.Query.NoPlan},
	}
}

// callShard runs one fan-out call against shard s, trying replicas in
// order: a transport failure or 5xx (already retried by the client policy)
// marks the replica unreachable and falls over to the next; a 4xx is a
// request-level verdict every replica would repeat and is returned
// immediately. The error is nil on success, the 4xx *api.Error, or a
// shard-unavailable sentinel when every replica failed.
func (r *Router) callShard(ctx context.Context, s int, kind string, root obs.Span,
	do func(ctx context.Context, cl *client.Client) error) error {
	var lastErr error
	tried := 0
	for ri, rep := range r.shards[s] {
		if !rep.available() {
			continue
		}
		if tried > 0 {
			r.metrics[s].failovers.Inc()
		}
		tried++
		sp := root.StartChild("shard." + kind)
		cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
		if sp.Recording() {
			cctx = client.WithTraceContext(cctx, sp.Context().String())
		}
		start := time.Now()
		err := do(cctx, rep.cl)
		cancel()
		r.metrics[s].latency.Observe(time.Since(start).Seconds())
		if err == nil {
			if sp.Recording() {
				sp.End(obs.Attr{Key: "shard", Value: int64(s)},
					obs.Attr{Key: "replica", Value: int64(ri)})
			}
			return nil
		}
		if sp.Recording() {
			sp.EndStatus("error", obs.Attr{Key: "shard", Value: int64(s)},
				obs.Attr{Key: "replica", Value: int64(ri)})
		}
		var aerr *api.Error
		if errors.As(err, &aerr) && aerr.Status >= 400 && aerr.Status < 500 {
			return err // the request is wrong, not the replica
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's own deadline expired or it disconnected; the
			// failure says nothing about the replica, and the remaining
			// replicas would fail identically. Keep everyone admitted.
			break
		}
		rep.setHealthy(false, err.Error())
	}
	r.metrics[s].lost.Inc()
	if lastErr == nil {
		lastErr = fmt.Errorf("no replica available")
	}
	return fmt.Errorf("shard %d unavailable: %w", s, lastErr)
}

// toPerfect converts a wire subgraph back to the engine's form so the
// router can reuse the engine's dedup, ordering and ranking primitives.
func toPerfect(sj *api.SubgraphJSON) *core.PerfectSubgraph {
	rel := make(map[int32][]int32, len(sj.Rel))
	for k, v := range sj.Rel {
		u, err := strconv.Atoi(k)
		if err != nil {
			continue // a shard never emits non-numeric keys
		}
		rel[int32(u)] = v
	}
	return &core.PerfectSubgraph{Center: sj.Center, Nodes: sj.Nodes, Edges: sj.Edges, Rel: rel}
}

// fanoutResult is one shard's verdict in a match fan-out.
type fanoutResult struct {
	resp *api.MatchResponse
	err  error
}

// partialOrFail resolves a fan-out with failed shards: a PartialJSON marker
// when the request allows degraded results, the structured
// shard_unavailable error otherwise. Never a silently incomplete response.
func (r *Router) partialOrFail(req *api.MatchRequest, owner []int32, failed []int) (*api.PartialJSON, *api.Error) {
	if len(failed) == 0 {
		return nil, nil
	}
	if !req.Query.AllowPartial {
		routerUnavailable.Inc()
		return nil, api.Errorf(http.StatusBadGateway, api.CodeShardUnavailable,
			"shards %v unavailable; retry, or set query.allow_partial for degraded results", failed)
	}
	missing := 0
	failedSet := make(map[int]bool, len(failed))
	for _, s := range failed {
		failedSet[s] = true
	}
	for _, s := range owner {
		if failedSet[int(s)] {
			missing++
		}
	}
	routerPartials.Inc()
	return &api.PartialJSON{FailedShards: failed, MissingNodes: missing}, nil
}

// Match implements api.Fanout: it sends the shard part of the request to
// every shard in parallel and merges the owned outcomes. A 4xx from any
// shard is a request-level verdict returned as is; shards that failed
// outright yield a partial marker or shard_unavailable (partialOrFail).
func (r *Router) Match(ctx context.Context, req *api.MatchRequest, span obs.Span) (*core.Result, *api.PartialJSON, error) {
	sreq := shardRequest(req)
	results := make([]fanoutResult, len(r.shards))
	var wg sync.WaitGroup
	for s := range r.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s].err = r.callShard(ctx, s, "match", span,
				func(cctx context.Context, cl *client.Client) error {
					resp, err := cl.Match(cctx, sreq)
					if err == nil {
						results[s].resp = resp
					}
					return err
				})
		}(s)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err // the caller's deadline or cancellation, not the fleet's
	}

	r.mu.RLock()
	owner := r.owner
	r.mu.RUnlock()

	var failed []int
	for s, res := range results {
		if res.err == nil {
			continue
		}
		var aerr *api.Error
		if errors.As(res.err, &aerr) && aerr.Status >= 400 && aerr.Status < 500 {
			return nil, nil, aerr // a request-level rejection; every shard agrees
		}
		failed = append(failed, s)
	}
	partial, aerr := r.partialOrFail(req, owner, failed)
	if aerr != nil {
		return nil, nil, aerr
	}
	subs, stats := mergeOwned(results, owner)
	return &core.Result{Subgraphs: subs, Stats: stats}, partial, nil
}

// mergeOwned implements the scatter/gather merge rule: keep from shard s
// exactly the subgraphs whose center s owns (each center is reported once,
// by the shard whose ball for it equals the global ball), admit them in
// ascending center order through the engine's deduper (so cross-center
// duplicate subgraphs collapse onto the smallest producing center, exactly
// as a single node admits them), and order canonically. Shard statistics
// are summed — they count halo-center work a single node would not do.
// Shards answer undeduplicated, so Duplicates counts only the discards
// made here, the same count a single node reports.
func mergeOwned(results []fanoutResult, owner []int32) ([]*core.PerfectSubgraph, core.Stats) {
	var stats core.Stats
	var owned []*core.PerfectSubgraph
	for s, res := range results {
		if res.resp == nil {
			continue
		}
		stats.BallsExamined += res.resp.Stats.BallsExamined
		stats.BallsSkipped += res.resp.Stats.BallsSkipped
		stats.PairsRemoved += res.resp.Stats.PairsRemoved
		stats.Duplicates += res.resp.Stats.Duplicates
		if res.resp.Stats.MinimizedFrom > stats.MinimizedFrom {
			stats.MinimizedFrom = res.resp.Stats.MinimizedFrom
		}
		for i := range res.resp.Matches {
			sj := &res.resp.Matches[i]
			if int(sj.Center) >= len(owner) || int(owner[sj.Center]) != s {
				continue
			}
			owned = append(owned, toPerfect(sj))
		}
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i].Center < owned[j].Center })
	dedup := core.NewDeduper()
	subs := owned[:0]
	for _, ps := range owned {
		if dedup.Admit(ps, &stats) {
			subs = append(subs, ps)
		}
	}
	core.SortSubgraphs(subs)
	return subs, stats
}

// verifyVersion asks a replica directly, after a failed update delivery,
// whether the batch nevertheless landed. It runs on a fresh context: the
// verdict must not depend on whatever killed the delivery.
func (r *Router) verifyVersion(rep *replica, want uint64) bool {
	vctx, cancel := context.WithTimeout(context.Background(), r.cfg.ShardTimeout)
	defer cancel()
	h, err := rep.cl.Healthz(vctx)
	return err == nil && h.Version == want
}

// checkLabels rejects labels containing NUL: live.TombstoneLabel and
// FillerLabel are internal markers, and a client-set FillerLabel would make
// a real member node indistinguishable from halo filler on the shards.
func checkLabels(muts []live.Mutation) *api.Error {
	for i, m := range muts {
		if (m.Op == live.OpAddNode || m.Op == live.OpSetLabel) && strings.IndexByte(m.Label, 0) >= 0 {
			return api.Errorf(http.StatusBadRequest, api.CodeInvalidMutation,
				"updates[%d]: %s label contains NUL; reserved for internal markers", i, m.Op)
		}
	}
	return nil
}

// Update implements api.Fanout: the batch applies to the authoritative
// store, then every shard whose subgraph it touched receives the diff.
func (r *Router) Update(ctx context.Context, muts []live.Mutation, span obs.Span) (*live.UpdateResult, map[int]uint64, error) {
	if aerr := checkLabels(muts); aerr != nil {
		return nil, nil, aerr
	}
	// One update at a time end to end: apply to the authoritative store
	// (which brings every standing query current, exactly as a single
	// node), recompute the halo member sets, then fan the per-shard diffs
	// out. Shards of a healthy fleet advance in lockstep with the router's
	// version vector.
	r.upMu.Lock()
	defer r.upMu.Unlock()

	oldG := r.store.Current().Graph()
	res, err := r.store.ApplyTraced(muts, span)
	if err != nil {
		return nil, nil, err
	}
	newG := r.store.Current().Graph()
	r.plan.ExtendTo(newG.NumNodes())
	newMembers := r.plan.Members(newG)

	r.mu.Lock()
	oldMembers := r.members
	r.members = newMembers
	r.owner = r.plan.Owner
	r.mu.Unlock()

	// The batch is already in the authoritative store, so the shard fan-out
	// must run to completion no matter what the caller does: a client that
	// disconnects or times out mid-fan-out must not cancel the deliveries
	// and eject every touched replica. Per-call ShardTimeout is the bound.
	ctx = context.WithoutCancel(ctx)
	versions := make(map[int]uint64, len(r.shards))
	var wg sync.WaitGroup
	for s := range r.shards {
		batch := DiffBatch(oldG, newG, oldMembers[s], newMembers[s])
		if len(batch) == 0 {
			r.mu.RLock()
			versions[s] = r.want[s]
			r.mu.RUnlock()
			continue // the batch did not touch this shard's subgraph
		}
		r.mu.Lock()
		r.want[s]++
		want := r.want[s]
		r.mu.Unlock()
		versions[s] = want
		// Every replica must apply the batch, so it is attempted even on
		// replicas a probe currently holds out as unreachable — a delivery
		// that lands readmits them. One that provably misses the batch is
		// stale for good (it can no longer serve consistent results) and
		// the probe loop will not readmit it.
		for ri, rep := range r.shards[s] {
			if rep.isStale() {
				continue
			}
			wg.Add(1)
			go func(s, ri int, rep *replica, batch []api.MutationJSON, want uint64) {
				defer wg.Done()
				sp := span.StartChild("shard.update")
				cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
				defer cancel()
				if sp.Recording() {
					cctx = client.WithTraceContext(cctx, sp.Context().String())
				}
				ures, err := rep.upCl.Update(cctx, batch...)
				switch {
				case err == nil && ures.Version == want:
					rep.setHealthy(true, "")
				case err == nil:
					rep.markStale(fmt.Sprintf("version %d after batch, router expects %d", ures.Version, want))
				default:
					// A failed call does not say whether the shard applied
					// the batch (the connection may have dropped after the
					// apply); believe the replica's own version, not the
					// transport.
					if r.verifyVersion(rep, want) {
						rep.setHealthy(true, "")
						err = nil
					} else {
						rep.markStale(fmt.Sprintf("update batch failed: %v", err))
					}
				}
				if sp.Recording() {
					status := ""
					if err != nil {
						status = "error"
					}
					sp.EndStatus(status,
						obs.Attr{Key: "shard", Value: int64(s)},
						obs.Attr{Key: "replica", Value: int64(ri)},
						obs.Attr{Key: "mutations", Value: int64(len(batch))})
				}
			}(s, ri, rep, batch, want)
		}
	}
	wg.Wait()

	return res, versions, nil
}

// Shards implements api.Fanout: per shard, its replica count, how many
// replicas serve (healthy and at the expected version), and the version
// the router expects.
func (r *Router) Shards() []api.ShardHealthJSON {
	r.mu.RLock()
	want := append([]uint64(nil), r.want...)
	r.mu.RUnlock()
	out := make([]api.ShardHealthJSON, 0, len(r.shards))
	for s, reps := range r.shards {
		serving := 0
		for _, rep := range reps {
			if rep.available() {
				serving++
			}
		}
		out = append(out, api.ShardHealthJSON{
			Shard:    s,
			Replicas: len(reps),
			Serving:  serving,
			Version:  want[s],
		})
	}
	return out
}
