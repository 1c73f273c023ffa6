package netdist

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/relation"
)

// shardRouter implements eval.ProbeRouter over the coordinator's
// placement: global-evaluation probes on hash-partitioned relations are
// served from the owning shard over the wire instead of a local mirror.
// When the probe's bound columns cover the shard key the fetch goes to
// the single owning shard ("routed"); otherwise it scatter-gathers every
// shard and merges ("scatter"). Results are cached per coordinator apply
// generation — one update's evaluation may probe the same key group many
// times across join positions, but pays the wire at most once.
//
// The shards, like the mirror, hold the state before the update being
// decided (it is propagated once admitted), so its relation is routed
// like any other and the evaluator applies it to what the router answers.
type shardRouter struct {
	co *Coordinator

	mu    sync.Mutex
	gen   uint64
	cache map[string][]relation.Tuple // rel -> all of it; rel + "\x00" + key -> a key group
}

func newShardRouter(co *Coordinator) *shardRouter {
	return &shardRouter{co: co, cache: map[string][]relation.Tuple{}}
}

// claims reports whether the router intercepts reads of rel — it is
// sharded — resetting the cache when the coordinator has decided
// anything since the last probe.
func (r *shardRouter) claims(rel string) bool {
	pl, ok := r.co.place[rel]
	if !ok || !pl.Sharded() {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen := r.co.applyGen.Load(); gen != r.gen {
		r.gen = gen
		clear(r.cache)
	}
	return true
}

// Probe implements eval.ProbeRouter.
func (r *shardRouter) Probe(dst []relation.Tuple, rel string, cols []int, vals []ast.Value) ([]relation.Tuple, bool, error) {
	if !r.claims(rel) {
		return dst, false, nil
	}
	pl := r.co.place[rel]
	group, err := r.group(rel, pl, cols, vals)
	if err != nil {
		return nil, false, err
	}
	for _, t := range group {
		if matchCols(t, cols, vals) {
			dst = append(dst, t)
		}
	}
	return dst, true, nil
}

// Contains implements eval.ProbeRouter (negated-subgoal membership).
func (r *shardRouter) Contains(rel string, t relation.Tuple) (bool, bool, error) {
	if !r.claims(rel) {
		return false, false, nil
	}
	var rg relation.Range
	if kc := r.co.place[rel].KeyCol; kc < len(t) {
		rg = relation.PointRange(kc, t[kc])
	}
	group, err := r.read(rel, rg)
	if err != nil {
		return false, false, err
	}
	for _, g := range group {
		if g.Equal(t) {
			return true, true, nil
		}
	}
	return false, true, nil
}

// group returns the candidate tuples for a probe: the single owning
// shard's key group when the bound columns cover the shard key, the
// merged contents of every shard otherwise.
func (r *shardRouter) group(rel string, pl RelPlacement, cols []int, vals []ast.Value) ([]relation.Tuple, error) {
	for i, c := range cols {
		if c == pl.KeyCol {
			return r.read(rel, relation.PointRange(c, vals[i]))
		}
	}
	return r.read(rel, relation.Range{})
}

// read returns what the coordinator fetches of rel for rg — a key group
// of the shard-key column or the whole relation — cached per generation.
func (r *shardRouter) read(rel string, rg relation.Range) ([]relation.Tuple, error) {
	ck := rel
	if v, ok := rg.Point(); ok {
		ck += "\x00" + relation.ValueKey(v)
	}
	r.mu.Lock()
	ts, ok := r.cache[ck]
	r.mu.Unlock()
	if ok {
		return ts, nil
	}
	ts, _, err := r.co.fetch(rel, rg)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cache[ck] = ts
	r.mu.Unlock()
	return ts, nil
}

// matchCols reports whether the tuple's projection onto cols equals
// vals (the ProbeRouter contract: results match every bound column).
func matchCols(t relation.Tuple, cols []int, vals []ast.Value) bool {
	for i, c := range cols {
		if c >= len(t) || !vals[i].Equal(t[c]) {
			return false
		}
	}
	return true
}
