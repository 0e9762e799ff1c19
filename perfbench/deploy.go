package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/shard"
)

// Router deployment shape: two shards, one engine worker each, so the
// shards together evaluate on as many threads as a standalone engine on a
// two-CPU machine. The halo is the patterns' radius, so every query is
// answered shard-locally.
const (
	routerShards       = 2
	routerShardWorkers = 1
)

// deployment is one in-process serving stack behind a loopback HTTP
// listener: a standalone live server, or a router with its shards.
type deployment struct {
	cl       *client.Client
	store    *live.Store   // the store queries are answered from (the router's authoritative one)
	router   *shard.Router // nil for standalone
	servers  []*httptest.Server
	standIDs []int64         // standing-query ids, in sequence.standing order
	shardRT  *timedTransport // router fan-out timings; nil unless traced
	timing   setupTiming
}

// setupTiming splits one set-up, in seconds.
type setupTiming struct {
	total      float64 // forced GC done → first query answered
	parse      float64 // graph.Parse of the data file
	storeBuild float64 // live.NewStore
	plan       float64 // shard.BuildPlan (router only)
	push       float64 // Router.Push (router only)
}

func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
	}
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].Close()
	}
}

// deploy stands a workload's deployment up from the data file and times
// it. The clock starts after a forced GC, at the graph.Parse call, and
// stops once the deployment has answered its first query, so lazily built
// indexes are part of set-up. traced installs the fan-out timing
// transport on the router.
func deploy(workload, dataPath string, seq *sequence, traced bool) (*deployment, error) {
	runtime.GC()
	start := time.Now()
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	g, err := graph.Parse(bufio.NewReader(f), graph.NewLabels())
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", dataPath, err)
	}
	d.timing.parse = time.Since(start).Seconds()

	t := time.Now()
	d.store = live.NewStore(g, live.Config{})
	d.timing.storeBuild = time.Since(t).Seconds()

	var handler http.Handler
	if workload == routerPlain {
		if handler, err = d.startRouter(g, traced); err != nil {
			return nil, err
		}
	} else {
		handler = api.NewLiveServer(d.store, api.Config{})
	}
	ts := httptest.NewServer(handler)
	d.servers = append(d.servers, ts)
	d.cl = client.New(ts.URL)

	ctx := context.Background()
	for _, src := range seq.standing {
		sq, err := d.cl.RegisterText(ctx, src)
		if err != nil {
			return nil, fmt.Errorf("registering standing query: %w", err)
		}
		d.standIDs = append(d.standIDs, sq.ID)
	}
	if _, err := d.cl.MatchText(ctx, seq.warm, api.QuerySpec{Mode: seq.mode}); err != nil {
		return nil, fmt.Errorf("set-up query: %w", err)
	}
	d.timing.total = time.Since(start).Seconds()
	if d.shardRT != nil {
		d.shardRT.drain() // the push and the set-up query are not ops
	}
	ok = true
	return d, nil
}

// startRouter plans the partition, starts the empty shards, pushes their
// subgraphs and returns the router's handler.
func (d *deployment) startRouter(g *graph.Graph, traced bool) (http.Handler, error) {
	t := time.Now()
	p, err := shard.BuildPlan(g, routerShards, patternRadius, shard.StrategyBFS)
	if err != nil {
		return nil, err
	}
	d.timing.plan = time.Since(t).Seconds()

	urls := make([][]string, routerShards)
	for s := range urls {
		empty, err := graph.ParseString("", graph.NewLabels())
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(api.NewLiveServer(
			live.NewStore(empty, live.Config{Workers: routerShardWorkers}),
			api.Config{Role: api.RoleShard}))
		d.servers = append(d.servers, ts)
		urls[s] = []string{ts.URL}
	}
	cfg := shard.Config{Plan: p, Shards: urls}
	if traced {
		d.shardRT = &timedTransport{base: http.DefaultTransport}
		cfg.HTTPClient = &http.Client{Transport: d.shardRT}
	}
	if d.router, err = shard.NewRouter(d.store, cfg); err != nil {
		return nil, err
	}
	t = time.Now()
	if err := d.router.Push(context.Background()); err != nil {
		return nil, fmt.Errorf("pushing shards: %w", err)
	}
	d.timing.push = time.Since(t).Seconds()
	return d.router.Handler(), nil
}

// timedTransport records each router→shard call, from the request
// leaving to its response body being closed. The benchmark installs it
// through the router's public Config.HTTPClient hook; the router itself is
// unchanged.
type timedTransport struct {
	base  http.RoundTripper
	mu    sync.Mutex
	calls []shardCall // completed calls since the last drain
}

type shardCall struct{ start, end time.Time }

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.record(start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.record(start) }}
	return resp, nil
}

func (t *timedTransport) record(start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.calls = append(t.calls, shardCall{start, end})
	t.mu.Unlock()
}

// drain returns and forgets the calls recorded since the last drain.
func (t *timedTransport) drain() []shardCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.calls
	t.calls = nil
	return out
}

// timedBody reports the first Close of a response body.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
