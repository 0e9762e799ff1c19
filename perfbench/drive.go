package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/api"
	"repro/internal/obs"
)

// pass is what one replay of the op sequence against one deployment
// observed.
type pass struct {
	wall      time.Duration
	latencyMS []float64 // every op, client-observed
	matchMS   []float64 // match ops, client-observed
	updateMS  []float64 // update ops, client-observed
	servedMS  []float64 // match ops, server-reported elapsed_ms
	wireMS    []float64 // match ops, client latency minus elapsed_ms
	applyMS   []float64 // update ops, server-reported elapsed_ms
	answers   []answer  // per op; set for match ops
	bad       []bool    // per op: the op failed
	failures  []string
	counts    counts
	recompute []float64 // update ops, Σ recomputed over standing queries

	// Process-wide resources over the timed phase.
	cpuMS      float64 // user+system CPU
	stealPct   float64 // share of the machine's CPU time stolen by its hypervisor
	peakRSSMB  float64 // VmHWM after the timed phase
	allocBytes float64
	gcCycles   float64
	scrape     map[string]float64 // /v1/metrics delta

	// Traced passes only.
	haloBalls int64     // router-plain: balls examined by the shards
	fanoutMS  []float64 // router-plain: client latency minus slowest shard call
	shardMax  []float64 // router-plain: slowest shard call
}

// counts are the outcomes a fixed op sequence decides on its own; two runs
// of one seed must agree on every one of them.
type counts struct {
	Matches        int64 `json:"matches"`
	BallsBuilt     int64 `json:"balls_built"`
	CacheHits      int64 `json:"cache_hits"`
	CacheContained int64 `json:"cache_contained"`
	CacheRefreshes int64 `json:"cache_refreshes"`
	CacheMisses    int64 `json:"cache_misses"`
	IndexBuilds    int64 `json:"index_builds"`
	Invalidations  int64 `json:"invalidations"`
	Recomputed     int64 `json:"recomputed"`
}

func (p *pass) fail(i int, o op, format string, args ...any) {
	p.bad[i] = true
	p.failures = append(p.failures, fmt.Sprintf("op %d (%s): %s", i, o.kind, fmt.Sprintf(format, args...)))
}

// drive replays seq against d with one client in a closed loop: each
// request is sent when the previous answer is in. With tr set, every op
// becomes one trace and is replayed through the layer functions by rp
// after its answer arrives.
func drive(d *deployment, seq *sequence, base *baseGraph, tr *tracer, rp *replayer) (*pass, error) {
	ctx := context.Background()
	p := &pass{answers: make([]answer, len(seq.ops)), bad: make([]bool, len(seq.ops))}
	before, err := scrape(ctx, d)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	rt0 := runtimeCounters()
	st0 := machineTicks()
	version := d.store.Current().ID()

	start := time.Now()
	for i, o := range seq.ops {
		root, call := -1, -1
		if tr != nil {
			root = tr.open(i, -1, "op")
			call = tr.open(i, root, "client."+o.kind.String())
		}
		t0 := time.Now()
		switch o.kind {
		case opMatch:
			req := api.MatchRequest{PatternText: seq.patterns[o.pattern], Query: api.QuerySpec{Mode: seq.mode}}
			resp, err := d.cl.Match(ctx, req)
			lat := msSince(t0)
			if tr != nil {
				tr.close(call)
			}
			p.latencyMS = append(p.latencyMS, lat)
			if err != nil {
				p.fail(i, o, "%v", err)
				break
			}
			p.matchMS = append(p.matchMS, lat)
			p.servedMS = append(p.servedMS, resp.ElapsedMS)
			p.wireMS = append(p.wireMS, lat-resp.ElapsedMS)
			p.counts.Matches += int64(len(resp.Matches))
			if resp.Partial != nil {
				p.fail(i, o, "partial answer %+v", *resp.Partial)
			}
			ans, err := answerOf(resp.Matches)
			if err != nil {
				p.fail(i, o, "%v", err)
				break
			}
			p.answers[i] = ans
			if tr == nil {
				break
			}
			if d.shardRT != nil {
				p.haloBalls += int64(resp.Stats.BallsExamined)
				slowest := 0.0
				for _, c := range d.shardRT.drain() {
					tr.record(i, call, "shard.match", c.start, c.end)
					slowest = max(slowest, float64(c.end.Sub(c.start))/1e6)
				}
				p.shardMax = append(p.shardMax, slowest)
				p.fanoutMS = append(p.fanoutMS, lat-slowest)
			}
			got, err := rp.match(tr, i, root, req)
			if err != nil {
				p.fail(i, o, "replay: %v", err)
			} else if got != ans {
				p.fail(i, o, "the server answered %d subgraphs, the replay through the layer functions %d (digests differ)",
					ans.subgraphs, got.subgraphs)
			}
		case opUpdate:
			resp, err := d.cl.Update(ctx, updateBatch(o.edges)...)
			lat := msSince(t0)
			if tr != nil {
				tr.close(call)
			}
			p.latencyMS = append(p.latencyMS, lat)
			if err != nil {
				p.fail(i, o, "%v", err)
				break
			}
			p.updateMS = append(p.updateMS, lat)
			p.applyMS = append(p.applyMS, resp.ElapsedMS)
			version++
			if resp.Version != version || resp.Nodes != base.nodes || resp.Edges != base.edges {
				p.fail(i, o, "version %d with %d nodes, %d edges; want version %d with %d nodes, %d edges",
					resp.Version, resp.Nodes, resp.Edges, version, base.nodes, base.edges)
			}
			sum := 0
			for _, n := range resp.Recomputed {
				sum += n
			}
			p.recompute = append(p.recompute, float64(sum))
			p.counts.Recomputed += int64(sum)
		case opPoll:
			delta, err := d.cl.PollDelta(ctx, d.standIDs[o.query])
			lat := msSince(t0)
			if tr != nil {
				tr.close(call)
			}
			p.latencyMS = append(p.latencyMS, lat)
			if err != nil {
				p.fail(i, o, "%v", err)
				break
			}
			// The delta describes the latest maintenance step, which must
			// be the latest version's; every batch is net-zero, so the
			// step changes nothing. Before the first update it is the
			// registration step, whose delta is the initial result.
			if delta.Version != version {
				p.fail(i, o, "standing query %d at version %d, store at %d", delta.ID, delta.Version, version)
			} else if delta.FromVersion < delta.Version && len(delta.Added)+len(delta.Removed) != 0 {
				p.fail(i, o, "standing query %d moved: %d added, %d removed",
					delta.ID, len(delta.Added), len(delta.Removed))
			}
		}
		if tr != nil {
			tr.close(root)
		}
	}
	p.wall = time.Since(start)

	// Resources are read before anything else runs, verification included.
	p.cpuMS = float64(cpuTime()-cpu0) / 1e6
	st1 := machineTicks()
	p.stealPct = 100 * ratio(st1[1]-st0[1], st1[0]-st0[0])
	p.peakRSSMB = peakRSSMB()
	rt1 := runtimeCounters()
	p.allocBytes = rt1[0] - rt0[0]
	p.gcCycles = rt1[1] - rt0[1]

	after, err := scrape(ctx, d)
	if err != nil {
		return nil, err
	}
	p.scrape = make(map[string]float64, len(after))
	for k, v := range after {
		p.scrape[k] = v - before[k]
	}
	c := &p.counts
	c.BallsBuilt = int64(p.scrape["scratch_ball_builds_total"])
	c.CacheHits = int64(p.scrape["plan_cache_hits_total"])
	c.CacheContained = int64(p.scrape["plan_cache_contained_hits_total"])
	c.CacheRefreshes = int64(p.scrape["plan_cache_refresh_total"])
	c.CacheMisses = int64(p.scrape["plan_cache_misses_total"])
	c.IndexBuilds = int64(p.scrape["plan_index_builds_total"])
	c.Invalidations = int64(p.scrape["plan_cache_invalidated_entries_total"])
	if rp != nil {
		c.IndexBuilds -= int64(rp.indexBuilds) // the replay's twin snapshots
	}
	return p, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func scrape(ctx context.Context, d *deployment) (map[string]float64, error) {
	text, err := d.cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scraping /v1/metrics: %w", err)
	}
	return obs.ParseText(strings.NewReader(text))
}

// cpuTime is the process's user plus system CPU time, in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// machineTicks reads the machine's total and stolen CPU ticks from
// /proc/stat; zeros where it cannot be read.
func machineTicks() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var total, steal float64
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]float64{total, steal}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeCounters reads the cumulative heap bytes allocated and GC cycles
// completed, without stopping the world.
func runtimeCounters() [2]float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return [2]float64{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// mustJSON renders v on one line.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are rendered
	}
	return string(b)
}
