// Command ccload is the sustained-load generator for the decision
// server: it drives thousands of concurrent client streams of mixed
// check/apply/batch traffic against a running ccserved over HTTP and
// reports per-arm p50/p99 latency and throughput as JSON.
//
// Usage:
//
//	ccserved -listen 127.0.0.1:8080 -constraints fi.dl &
//	ccload -addr http://127.0.0.1:8080 -streams 1000
//
// The traffic assumes the D1 forbidden-interval constraint
// panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y. Check requests probe
// l and r in [0, 220]; apply and batch requests insert r points far
// above it and delete them again.
//
// Streams are closed-loop: each waits for its response before issuing
// the next request. -mix weights the arms ("check=70,apply=25,batch=5"),
// -ramp staggers stream starts, -conns caps the client connection pool
// (10k streams multiplex over it — the file-descriptor budget stays
// bounded). Deliberate 429s (queue full, rate limited) are counted
// separately from errors; any true error makes ccload exit non-zero, so
// CI can use a short run as a wiring smoke test.
//
// A -trace fraction of requests carries a freshly minted sampled
// traceparent; the report counts responses whose X-Request-ID echoed the
// sent trace id (traced) against the rest (untraced), so a load run
// doubles as a propagation health check of the serving stack.
//
// -conflict F makes the first F fraction of streams write one shared key
// band so their apply traffic collides tuple-for-tuple (scheduler
// conflicts); -skew S (Zipf exponent, > 1) draws apply keys from one
// shared skewed band instead of per-stream uniform bands, so hot keys
// meet in the scheduler's key-group footprints (and, on a sharded
// server, on their owning shards). The total record carries the run's
// apply_workers, sched_conflict_stalls and shard_routed/shard_scatter
// deltas from /v1/stats.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/serve/sdk"
	"repro/internal/store"
)

// loadConfig is everything main parses from flags.
type loadConfig struct {
	addr     string
	streams  int
	duration time.Duration
	ramp     time.Duration
	mix      string
	batch    int
	conns    int
	seed     int64
	trace    float64
	conflict float64
	skew     float64
	out      string
}

func main() {
	var cfg loadConfig
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running ccserved (required)")
	flag.IntVar(&cfg.streams, "streams", 10000, "concurrent client streams")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "measured load duration")
	flag.DurationVar(&cfg.ramp, "ramp", 0, "stagger stream starts across this window")
	flag.StringVar(&cfg.mix, "mix", "check=70,apply=25,batch=5", "arm weights")
	flag.IntVar(&cfg.batch, "batch", 8, "updates per batch request")
	flag.IntVar(&cfg.conns, "conns", 512, "client connection-pool cap (streams multiplex over it)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.trace, "trace", 0.05, "fraction of requests carrying a sampled traceparent (0: none)")
	flag.Float64Var(&cfg.conflict, "conflict", 0, "fraction of streams whose apply traffic writes one shared key band (conflicting updates; the rest write disjoint bands)")
	flag.Float64Var(&cfg.skew, "skew", 0, "Zipf exponent (>1) for apply-arm key choice: all streams draw keys from one skewed band, concentrating writes on hot shard keys (0: uniform per-stream bands)")
	flag.StringVar(&cfg.out, "out", "", "write the JSON report here (empty: stdout)")
	flag.Parse()

	report, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccload:", err)
		os.Exit(1)
	}
	var sink io.Writer = os.Stdout
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccload:", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = f
	}
	enc := json.NewEncoder(sink)
	enc.SetIndent("", "  ")
	enc.Encode(report)
	for _, rec := range report {
		fmt.Fprintf(os.Stderr, "ccload: %-18s ops=%-8d p50=%-8s p99=%-8s %.0f ops/s (429s=%d, violations=%d, errors=%d)\n",
			rec.Name, rec.Ops, time.Duration(rec.P50US*1000), time.Duration(rec.P99US*1000),
			rec.ThroughputPerS, rec.Rejected429, rec.Violations, rec.Errors)
		if rec.Traced+rec.Untraced > 0 {
			fmt.Fprintf(os.Stderr, "ccload: trace propagation: %d traced, %d untraced responses\n",
				rec.Traced, rec.Untraced)
		}
		if rec.ApplyWorkers > 1 {
			fmt.Fprintf(os.Stderr, "ccload: pipelined arm: %d apply workers, %d scheduled, %d conflict stalls (conflict=%.2f)\n",
				rec.ApplyWorkers, rec.SchedTasks, rec.ConflictStalls, rec.Conflict)
		}
		if rec.ShardRouted+rec.ShardScatter > 0 {
			fmt.Fprintf(os.Stderr, "ccload: sharded arm: %d routed, %d scatter (skew=%.2f)\n",
				rec.ShardRouted, rec.ShardScatter, rec.Skew)
		}
		if rec.Errors > 0 {
			os.Exit(1)
		}
	}
}

// record is one entry of the JSON report.
type record struct {
	Name           string  `json:"name"`
	Streams        int     `json:"streams"`
	Conns          int     `json:"conns"`
	DurationS      float64 `json:"duration_s"`
	Ops            int64   `json:"ops"`
	Errors         int64   `json:"errors"`
	Rejected429    int64   `json:"rejected_429"`
	Violations     int64   `json:"violations"`
	P50US          int64   `json:"p50_us"`
	P99US          int64   `json:"p99_us"`
	ThroughputPerS float64 `json:"throughput_per_s"`
	Traced         int64   `json:"traced,omitempty"`
	Untraced       int64   `json:"untraced,omitempty"`
	ApplyWorkers   int     `json:"apply_workers,omitempty"`
	Conflict       float64 `json:"conflict,omitempty"`
	Skew           float64 `json:"skew,omitempty"`
	SchedTasks     int64   `json:"sched_tasks,omitempty"`
	ConflictStalls int64   `json:"sched_conflict_stalls,omitempty"`
	ShardRouted    int     `json:"shard_routed,omitempty"`
	ShardScatter   int     `json:"shard_scatter,omitempty"`
}

// armAgg accumulates one arm's measurements across streams.
type armAgg struct {
	lat                        []float64 // seconds
	ops, errs, rejected, viols int64
}

const (
	armCheck = iota
	armApply
	armBatch
	armCount
)

var armNames = [armCount]string{"check", "apply", "batch"}

func run(cfg loadConfig) ([]record, error) {
	weights, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	if cfg.skew != 0 && cfg.skew <= 1 {
		return nil, fmt.Errorf("-skew %v: the Zipf exponent must exceed 1 (0 disables)", cfg.skew)
	}
	if cfg.addr == "" {
		return nil, fmt.Errorf("-addr is required: the base URL of a running ccserved")
	}
	transport := &http.Transport{
		MaxIdleConns:        cfg.conns,
		MaxIdleConnsPerHost: cfg.conns,
		MaxConnsPerHost:     cfg.conns,
		IdleConnTimeout:     90 * time.Second,
	}
	client, err := sdk.New(sdk.Config{
		URL:        cfg.addr,
		HTTPClient: &http.Client{Transport: transport, Timeout: 60 * time.Second},
		ClientID:   "ccload",
		// Mint a fresh sampled trace context for a -trace fraction of
		// requests (the global rand source is concurrency-safe); the rest
		// go out bare and count as untraced.
		Trace: func() obs.SpanContext {
			if cfg.trace <= 0 || rand.Float64() >= cfg.trace {
				return obs.SpanContext{}
			}
			return obs.NewSpanContext(true)
		},
	})
	if err != nil {
		return nil, err
	}

	// Snapshot the server's scheduler counters around the run so the
	// report carries this arm's conflict-stall delta.
	pre, preErr := client.Stats()

	var mu sync.Mutex
	var agg [armCount]armAgg
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for i := 0; i < cfg.streams; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if cfg.ramp > 0 {
				time.Sleep(time.Duration(int64(cfg.ramp) * int64(id) / int64(cfg.streams)))
			}
			local := stream(client, id, cfg, weights, deadline)
			mu.Lock()
			for a := 0; a < armCount; a++ {
				agg[a].lat = append(agg[a].lat, local[a].lat...)
				agg[a].ops += local[a].ops
				agg[a].errs += local[a].errs
				agg[a].rejected += local[a].rejected
				agg[a].viols += local[a].viols
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var out []record
	var total armAgg
	for a := 0; a < armCount; a++ {
		total.lat = append(total.lat, agg[a].lat...)
		total.ops += agg[a].ops
		total.errs += agg[a].errs
		total.rejected += agg[a].rejected
		total.viols += agg[a].viols
		out = append(out, makeRecord("ServeLoad/"+armNames[a], agg[a], cfg, elapsed))
	}
	tot := makeRecord("ServeLoad/total", total, cfg, elapsed)
	tot.Traced, tot.Untraced = client.TraceCounts()
	tot.Conflict = cfg.conflict
	tot.Skew = cfg.skew
	if post, err := client.Stats(); err == nil && preErr == nil {
		tot.ApplyWorkers = post.Server.ApplyWorkers
		tot.SchedTasks = post.Server.SchedTasks - pre.Server.SchedTasks
		tot.ConflictStalls = post.Server.SchedConflictStalls - pre.Server.SchedConflictStalls
		tot.ShardRouted = post.Server.ShardRouted - pre.Server.ShardRouted
		tot.ShardScatter = post.Server.ShardScatter - pre.Server.ShardScatter
	}
	out = append(out, tot)
	return out, nil
}

func makeRecord(name string, a armAgg, cfg loadConfig, elapsed float64) record {
	rec := record{
		Name: name, Streams: cfg.streams, Conns: cfg.conns, DurationS: elapsed,
		Ops: a.ops, Errors: a.errs, Rejected429: a.rejected, Violations: a.viols,
	}
	if len(a.lat) > 0 {
		sort.Float64s(a.lat)
		rec.P50US = int64(quantile(a.lat, 0.50) * 1e6)
		rec.P99US = int64(quantile(a.lat, 0.99) * 1e6)
	}
	if elapsed > 0 {
		rec.ThroughputPerS = float64(a.ops) / elapsed
	}
	return rec
}

// quantile reads q from sorted samples.
func quantile(sorted []float64, q float64) float64 {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// stream is one closed-loop client: it issues requests until the
// deadline, recording latency per arm. Apply and batch traffic works in
// a per-stream coordinate band far above the seeded intervals (always
// safe) and alternates inserts with deletes so the store stays bounded;
// check traffic probes the contended band and collects real violation
// verdicts.
func stream(client *sdk.SDK, id int, cfg loadConfig, weights [armCount]int, deadline time.Time) [armCount]armAgg {
	var agg [armCount]armAgg
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
	totalWeight := weights[armCheck] + weights[armApply] + weights[armBatch]
	base := int64(1_000_000_000) + int64(id)*1_000_000
	// -skew: every stream draws apply keys from one shared Zipf-skewed
	// band, so hot keys (and, on a sharded server, their owning shards) soak up
	// most of the write traffic.
	var zipf *rand.Zipf
	if cfg.skew > 1 {
		zipf = rand.NewZipf(rng, cfg.skew, 1, 1023)
	}
	// The first -conflict fraction of streams shares one narrow key band:
	// their apply writes collide tuple-for-tuple across streams (same
	// fingerprint → scheduler conflicts), while the rest keep per-stream
	// disjoint bands and pipeline freely.
	shared := cfg.conflict > 0 && float64(id) < cfg.conflict*float64(cfg.streams)
	next := int64(0)
	var pendingApply, pendingBatch []store.Update
	for time.Now().Before(deadline) {
		arm := armCheck
		for w, acc := rng.Intn(totalWeight), 0; arm < armBatch; arm++ {
			acc += weights[arm]
			if w < acc {
				break
			}
		}
		var err error
		var decided, violated bool
		startOp := time.Now()
		switch arm {
		case armCheck:
			var u store.Update
			if rng.Intn(2) == 0 {
				lo := rng.Int63n(200)
				u = store.Ins("l", relation.Ints(lo, lo+1+rng.Int63n(20)))
			} else {
				u = store.Ins("r", relation.Ints(rng.Int63n(200)))
			}
			var d serve.Decision
			d, err = client.Check(u)
			decided, violated = err == nil, err == nil && !d.OK()
		case armApply:
			var u store.Update
			if len(pendingApply) > 0 {
				u = invert(pendingApply[len(pendingApply)-1])
				pendingApply = pendingApply[:len(pendingApply)-1]
			} else {
				key := base + next
				if shared {
					key = 2_000_000_000 + next%32
				}
				if zipf != nil {
					key = 3_000_000_000 + int64(zipf.Uint64())
				}
				u = store.Ins("r", relation.Ints(key))
				next++
				pendingApply = append(pendingApply, u)
			}
			var d serve.Decision
			d, err = client.Apply(u)
			decided, violated = err == nil, err == nil && !d.OK()
		case armBatch:
			var us []store.Update
			if len(pendingBatch) > 0 {
				for i := len(pendingBatch) - 1; i >= 0; i-- {
					us = append(us, invert(pendingBatch[i]))
				}
				pendingBatch = nil
			} else {
				for k := 0; k < cfg.batch; k++ {
					u := store.Ins("r", relation.Ints(base+next))
					next++
					us = append(us, u)
					pendingBatch = append(pendingBatch, u)
				}
			}
			var res serve.BatchResult
			res, err = client.Batch(us, true)
			decided, violated = err == nil, err == nil && res.Applied < len(us)
			if err != nil || res.Applied < len(us) {
				// The batch did not land; don't try to invert it next round.
				pendingBatch = nil
			}
		}
		dur := time.Since(startOp).Seconds()
		a := &agg[arm]
		switch {
		case decided:
			a.ops++
			a.lat = append(a.lat, dur)
			if violated {
				a.viols++
			}
		default:
			if _, busy := sdk.IsBusy(err); busy {
				a.rejected++
			} else {
				a.errs++
			}
		}
	}
	return agg
}

func invert(u store.Update) store.Update {
	if u.Insert {
		return store.Del(u.Relation, u.Tuple)
	}
	return store.Ins(u.Relation, u.Tuple)
}

// parseMix parses "check=70,apply=25,batch=5".
func parseMix(mix string) ([armCount]int, error) {
	var weights [armCount]int
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return weights, fmt.Errorf("bad -mix entry %q (want arm=weight)", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return weights, fmt.Errorf("bad -mix weight %q", part)
		}
		switch name {
		case "check":
			weights[armCheck] = n
		case "apply":
			weights[armApply] = n
		case "batch":
			weights[armBatch] = n
		default:
			return weights, fmt.Errorf("unknown -mix arm %q", name)
		}
	}
	if weights[armCheck]+weights[armApply]+weights[armBatch] <= 0 {
		return weights, fmt.Errorf("-mix %q has no positive weight", mix)
	}
	return weights, nil
}
