package residual

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

const (
	// cacheCap bounds the compiled-residual map; at the cap it is reset
	// wholesale (entries are recomputable — the policy of the decision
	// and plan caches).
	cacheCap = 4096
	// shapeCap bounds the pattern-shape memo.
	shapeCap = 4096
)

// shapeKey identifies a pattern shape. Constraint programs are parsed
// once and held by pointer for their registered lifetime, so pointer
// identity is the cheapest sound program key; Invalidate clears the memo
// whenever the constraint set changes.
type shapeKey struct {
	prog   *ast.Program
	rel    string
	insert bool
}

// entryKey identifies a compiled residual: the shape plus what of the
// tuple is baked into the compilation — its arity (Compile specializes
// only the occurrences of that arity, so a malformed tuple compiles to
// always-safe and must never serve a well-formed one) and its pinned
// values — the index mode, and the store shape the arity folds were
// validated against.
type entryKey struct {
	shapeKey
	arity   int
	noIndex bool
	pinned  string
	storeID uint64
	schema  uint64
}

// Cache memoizes residual compilations per update pattern, at both
// levels — shape analysis and compiled residuals. It is safe for
// concurrent use. core.Checker's decision programs take a pattern's check
// from it once per schema version, and per decision only where the check
// depends on the tuple's pinned values. Structural store changes miss
// naturally through the schema version; constraint-set changes must call
// Invalidate.
type Cache struct {
	mu      sync.Mutex
	shapes  map[shapeKey]Shape
	entries map[entryKey]*Residual

	hits     atomic.Int64
	misses   atomic.Int64
	compiled atomic.Int64
}

// NewCache creates an empty residual cache.
func NewCache() *Cache {
	return &Cache{
		shapes:  make(map[shapeKey]Shape),
		entries: make(map[entryKey]*Residual),
	}
}

// For returns the compiled residual serving prog under the update, or
// ok=false when the pattern is not residual-eligible and the caller must
// fall back to the full pipeline. hit distinguishes a served entry from
// a fresh compilation; ineligible lookups count as misses (they measure
// the fallback rate).
func (c *Cache) For(prog *ast.Program, u store.Update, db *store.Store, opts Options) (res *Residual, hit, ok bool) {
	sk := shapeKey{prog: prog, rel: u.Relation, insert: u.Insert}
	c.mu.Lock()
	sh, known := c.shapes[sk]
	if !known {
		sh = DeriveShape(prog, u.Relation, u.Insert)
		if len(c.shapes) >= shapeCap {
			c.shapes = make(map[shapeKey]Shape)
		}
		c.shapes[sk] = sh
	}
	if !sh.Eligible {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false, false
	}
	key := entryKey{
		shapeKey: sk,
		arity:    len(u.Tuple),
		noIndex:  opts.DisableIndexes,
		pinned:   pinnedKey(sh, u.Tuple),
		storeID:  db.ID(),
		schema:   db.SchemaVersion(),
	}
	if e, found := c.entries[key]; found {
		c.mu.Unlock()
		c.hits.Add(1)
		return e, true, true
	}
	c.mu.Unlock()
	// Compile outside the lock: concurrent first lookups may compile the
	// same pattern twice, but the results are identical and one wins the
	// store — the plan cache's tolerance.
	res = Compile(prog, u.Relation, u.Insert, u.Tuple, sh, db, opts)
	c.misses.Add(1)
	c.compiled.Add(1)
	c.mu.Lock()
	if len(c.entries) >= cacheCap {
		c.entries = make(map[entryKey]*Residual)
	}
	c.entries[key] = res
	c.mu.Unlock()
	return res, false, true
}

// pinnedKey encodes the tuple's values at the shape's pinned positions —
// the part of the tuple the compilation depends on. Tuples shorter than
// the shape arity (they unify with no occurrence and compile to
// always-safe) key on their actual positions only.
func pinnedKey(sh Shape, t relation.Tuple) string {
	if sh.Arity <= 0 {
		return ""
	}
	var sb strings.Builder
	for i, pin := range sh.Pinned {
		if !pin || i >= len(t) {
			continue
		}
		sb.WriteString(t[i].Key())
		sb.WriteByte(0)
	}
	return sb.String()
}

// Stats returns the cumulative counters and the current number of cached
// compiled residuals.
func (c *Cache) Stats() (hits, misses, compiled int64, entries int) {
	c.mu.Lock()
	entries = len(c.entries)
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.compiled.Load(), entries
}

// ResetStats zeroes the hit/miss/compiled counters without touching the
// cached residuals (ccheck -repeat resets between runs so each run's
// statistics stand alone).
func (c *Cache) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.compiled.Store(0)
}

// Invalidate drops every memoized shape and compiled residual. Call it
// whenever the constraint set changes — program pointers may be reused
// and shapes do not carry the set fingerprint.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.shapes = make(map[shapeKey]Shape)
	c.entries = make(map[entryKey]*Residual)
	c.mu.Unlock()
}
