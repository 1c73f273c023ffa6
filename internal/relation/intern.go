package relation

import (
	"cmp"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

// Value interning. Every constant that flows through the relational
// substrate — exact rationals and strings alike — is mapped to a dense
// process-local Handle, and a stored tuple is the row of its values'
// handles: the hot paths compare and hash small integers instead of
// rebuilding canonical key strings (Value.Key allocates a fresh string per
// call, and big.Rat comparison walks limbs). The pool also memoizes each
// value's canonical key string, a pooled representative Value — what
// every materialized tuple is built from — and, for an int64 integer, its
// int64, which the ordered indexes compare instead of the big.Rat, so key
// rendering, wire encoding and ordering reuse one allocation per distinct
// constant for the process lifetime.
//
// Interning is strictly process-local: the wire format (internal/netdist)
// still carries canonical exact values, and decode re-interns on arrival.
// Handles are never persisted or exchanged.
//
// The pool is safe for concurrent use. Interning (value → handle) takes a
// read lock for the map lookup and the write lock to register a new
// value. Resolving a handle (handle → value, InternedValue and ValueKey)
// takes no lock: the representatives live in fixed-size chunks that
// never move, behind a chunk directory that a writer replaces with a
// longer copy — published atomically — when it opens a chunk. Same value
// ⇒ same handle and distinct values ⇒ distinct handles, for the process
// lifetime: big.Rat is always kept normalized, so RatString is a
// canonical form and the numeric maps cannot alias.

// Handle is a dense process-local identifier for an interned constant.
// Handles of equal values are equal; handles of distinct values differ.
type Handle uint32

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
)

// interned is one pooled constant: its representative, its canonical
// Value.Key rendering and, for an integer that fits in an int64, that
// int64 — all precomputed once.
type interned struct {
	v   ast.Value
	key string
	// n is v's value when small is set: v is an integer in int64's range.
	n     int64
	small bool
}

// prepared returns v with its int64 form worked out, as the pool holds
// it: what an ordered index compares a range bound by.
func prepared(v ast.Value) interned {
	if v.Kind == ast.NumberValue && v.Num.IsInt() && v.Num.Num().IsInt64() {
		return interned{v: v, n: v.Num.Num().Int64(), small: true}
	}
	return interned{v: v}
}

// compare orders two prepared values as ast.Value.Compare does, with
// integer compares when both are int64 integers.
func (a *interned) compare(b *interned) int {
	if a.small && b.small {
		return cmp.Compare(a.n, b.n)
	}
	return a.v.Compare(b.v)
}

// compareHandles orders the pooled values of two handles as
// ast.Value.Compare orders the values.
func compareHandles(a, b Handle) int {
	if a == b {
		return 0
	}
	return internPool.slot(a).compare(internPool.slot(b))
}

// chunk holds the pooled constants of chunkSize consecutive handles.
type chunk [chunkSize]interned

// pool is the process-wide intern pool.
type pool struct {
	mu sync.RWMutex
	// ints fast-paths the dominant case: integral rationals that fit in
	// an int64 (no string rendering needed to key them).
	ints map[int64]Handle
	// rats keys every other rational by its canonical RatString.
	rats map[string]Handle
	// strs keys symbolic constants by their text.
	strs map[string]Handle
	// n is the number of handles issued, under mu.
	n int
	// dir is the chunk directory: handle h is (*dir)[h>>chunkBits][h%chunkSize].
	// A reader holding h got it after the writer filled its slot, so the
	// slot is read without the lock.
	dir  atomic.Pointer[[]*chunk]
	size atomic.Int64 // n, readable without the lock
}

var internPool = newPool()

func newPool() *pool {
	p := &pool{ints: map[int64]Handle{}, rats: map[string]Handle{}, strs: map[string]Handle{}}
	p.dir.Store(&[]*chunk{})
	return p
}

// lookupLocked finds v's handle under a held read or write lock. The
// rendered rat key is returned so the insert path can reuse it.
func (p *pool) lookupLocked(v ast.Value, ratKey string) (Handle, bool) {
	if v.Kind == ast.StringValue {
		h, ok := p.strs[v.Str]
		return h, ok
	}
	if ratKey == "" {
		h, ok := p.ints[v.Num.Num().Int64()]
		return h, ok
	}
	h, ok := p.rats[ratKey]
	return h, ok
}

// HandleOf returns v's handle when the pool holds v. It interns nothing: a
// value the pool lacks is in no stored tuple, so a read that looks it up
// can answer empty without growing the pool.
func HandleOf(v ast.Value) (Handle, bool) {
	// Render the slow-path numeric key outside the lock: RatString
	// allocates, and only non-int64 rationals need it.
	ratKey := ""
	if v.Kind == ast.NumberValue && !(v.Num.IsInt() && v.Num.Num().IsInt64()) {
		ratKey = v.Num.RatString()
	}
	p := internPool
	p.mu.RLock()
	h, ok := p.lookupLocked(v, ratKey)
	p.mu.RUnlock()
	return h, ok
}

// Intern returns the dense handle for v, registering it on first use.
func Intern(v ast.Value) Handle {
	if h, ok := HandleOf(v); ok {
		return h
	}
	p := internPool
	ratKey := ""
	if v.Kind == ast.NumberValue && !(v.Num.IsInt() && v.Num.Num().IsInt64()) {
		ratKey = v.Num.RatString()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if h, ok := p.lookupLocked(v, ratKey); ok {
		return h // a concurrent interner won the race
	}
	h := Handle(p.n)
	// Store a private copy of the value so later mutation of a caller's
	// big.Rat cannot corrupt the pool (Values are treated as immutable
	// repo-wide, but the pool outlives any caller).
	stored := v
	if v.Kind == ast.NumberValue {
		stored.Num = new(big.Rat).SetFrac(v.Num.Num(), v.Num.Denom())
	}
	dir := *p.dir.Load()
	if int(h>>chunkBits) == len(dir) {
		grown := append(dir[:len(dir):len(dir)], new(chunk))
		p.dir.Store(&grown)
		dir = grown
	}
	slot := prepared(stored)
	slot.key = stored.Key()
	dir[h>>chunkBits][h%chunkSize] = slot
	switch {
	case v.Kind == ast.StringValue:
		p.strs[v.Str] = h
	case ratKey == "":
		p.ints[v.Num.Num().Int64()] = h
	default:
		p.rats[ratKey] = h
	}
	p.n++
	p.size.Store(int64(p.n))
	return h
}

// slot returns the pooled constant of h, lock-free.
func (p *pool) slot(h Handle) *interned {
	return &(*p.dir.Load())[h>>chunkBits][h%chunkSize]
}

// InternedValue returns the pooled representative for h. It takes no
// lock: a value is resolved only where one is needed — an order
// comparison, a range bound, a routed read, a materialized result.
func InternedValue(h Handle) ast.Value { return internPool.slot(h).v }

// Canonical returns the pooled representative equal to v, interning it
// on first use. The netdist decode path funnels every wire constant
// through Canonical so duplicated remote values share one backing
// big.Rat/string and arrive pre-interned for fingerprinting.
func Canonical(v ast.Value) ast.Value {
	return InternedValue(Intern(v))
}

// LookupKey resolves a canonical key — "$" and a symbol's text, or "#"
// and an int64 in canonical decimal (no sign but a leading "-", no
// leading zero, not "-0") — to the pooled value, if the pool holds it. It
// parses no number and interns nothing: anything else (a key not yet
// pooled, a fraction, a wider integer, a non-canonical rendering)
// reports false and is the caller's to parse.
func LookupKey(key string) (ast.Value, bool) {
	h, ok := lookupKey(key)
	if !ok {
		return ast.Value{}, false
	}
	return internPool.slot(h).v, true
}

// KeyHandle is LookupKey's handle: the handle of the value a canonical key
// names, when the pool holds it.
func KeyHandle(key string) (Handle, bool) { return lookupKey(key) }

// PooledKey returns the pool's rendering of key — the string ValueKey
// gives for the value LookupKey resolves it to — when LookupKey would
// resolve it. It allocates nothing: a decoder keeps the pool's string
// instead of copying the key out of its buffer.
func PooledKey(key []byte) (string, bool) {
	h, ok := lookupKey(key)
	if !ok {
		return "", false
	}
	return internPool.slot(h).key, true
}

func lookupKey[K string | []byte](key K) (Handle, bool) {
	if len(key) == 0 {
		return 0, false
	}
	p := internPool
	var h Handle
	var ok bool
	switch key[0] {
	case '$':
		p.mu.RLock()
		h, ok = p.strs[string(key[1:])]
		p.mu.RUnlock()
	case '#':
		n, canonical := canonicalInt(key[1:])
		if !canonical {
			return 0, false
		}
		p.mu.RLock()
		h, ok = p.ints[n]
		p.mu.RUnlock()
	}
	return h, ok
}

// canonicalInt parses s when it is an int64 rendered as RatString renders
// it: -?(0|[1-9][0-9]*), not -0.
func canonicalInt[K string | []byte](s K) (int64, bool) {
	neg := len(s) > 0 && s[0] == '-'
	digits := s
	if neg {
		digits = s[1:]
	}
	if len(digits) == 0 || digits[0] == '0' && (len(digits) > 1 || neg) {
		return 0, false
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var n uint64
	for i := 0; i < len(digits); i++ {
		d := uint64(digits[i] - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// ValueKey returns v's canonical Value.Key rendering from the pool's
// precomputed table — byte-identical to v.Key(), without rebuilding it.
func ValueKey(v ast.Value) string { return internPool.slot(Intern(v)).key }

// InternSize returns the number of distinct constants interned so far
// (exported into the obs registry as the cc_intern_size gauge).
func InternSize() int64 { return internPool.size.Load() }

// AppendHandles interns every value of t and appends the handles to dst.
func AppendHandles(dst []Handle, t Tuple) []Handle {
	for _, v := range t {
		dst = append(dst, Intern(v))
	}
	return dst
}

// Tuple fingerprints: an FNV-1a fold over the tuple's interned handles.
// Equal tuples always agree (same values ⇒ same handles); the relation
// layer treats the fingerprint as a hash — bucket candidates are still
// verified by handle comparison, so a collision costs a probe, never an
// answer.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Rows interns each tuple of ts and returns their handle rows, windows of
// one array.
func Rows(ts []Tuple) [][]Handle {
	n := 0
	for _, t := range ts {
		n += len(t)
	}
	flat, rows := make([]Handle, 0, n), make([][]Handle, len(ts))
	for i, t := range ts {
		start := len(flat)
		flat = AppendHandles(flat, t)
		rows[i] = flat[start:len(flat):len(flat)]
	}
	return rows
}

// fingerprintFold folds one handle into a running fingerprint.
func fingerprintFold(fp uint64, h Handle) uint64 {
	fp ^= uint64(h)
	fp *= fnvPrime64
	fp ^= uint64(h) >> 16 // stir the high bits back in
	fp *= fnvPrime64
	return fp
}

// FingerprintHandles fingerprints a handle slice: equal slices agree,
// distinct ones collide only with hash probability.
func FingerprintHandles(hs []Handle) uint64 {
	fp := uint64(fnvOffset64)
	for _, h := range hs {
		fp = fingerprintFold(fp, h)
	}
	return fp
}

// Fingerprint returns the tuple's interned fingerprint: equal tuples
// agree, distinct tuples collide only with hash probability.
func (t Tuple) Fingerprint() uint64 {
	fp := uint64(fnvOffset64)
	for _, v := range t {
		fp = fingerprintFold(fp, Intern(v))
	}
	return fp
}
