package residual

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/store"
)

// entryKey identifies a compiled residual: the program, by identity — the
// memo's key keeps it alive, so its address is never another program's —
// the update pattern (relation, polarity, arity: a malformed tuple
// compiles to always-safe and must never serve a well-formed one) and the
// index mode.
type entryKey struct {
	prog    *ast.Program
	rel     string
	insert  bool
	arity   int
	noIndex bool
}

// Cache memoizes Compile per (program, relation, polarity, arity, index
// mode), for a caller that looks a check up per update instead of keeping
// the ones it compiled (core.Checker compiles every pattern of its
// constraints when they are added). It holds every program it is asked
// about, and serves one Options.Local. Safe for concurrent use.
type Cache struct {
	mu sync.Mutex
	// entries holds nil for a pattern the compiler does not accept.
	entries map[entryKey]*Residual
}

// NewCache creates an empty residual memo.
func NewCache() *Cache { return &Cache{entries: map[entryKey]*Residual{}} }

// For returns the compiled residual serving prog under the update, or
// ok=false when the pattern is not residual-eligible and the caller must
// fall back to the full pipeline; hit says it was compiled before. A
// compiled residual reads no database, so db is not consulted.
func (c *Cache) For(prog *ast.Program, u store.Update, _ *store.Store, opts Options) (res *Residual, hit, ok bool) {
	key := entryKey{prog, u.Relation, u.Insert, len(u.Tuple), opts.DisableIndexes}
	c.mu.Lock()
	defer c.mu.Unlock()
	res, hit = c.entries[key]
	if !hit {
		if DeriveShape(prog, u.Relation, u.Insert).Eligible {
			res = Compile(prog, u.Relation, u.Insert, len(u.Tuple), opts)
		}
		c.entries[key] = res
	}
	return res, hit && res != nil, res != nil
}
