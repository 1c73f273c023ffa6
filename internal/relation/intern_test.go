package relation

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"repro/internal/ast"
)

// internWorkload returns a mixed set of values exercising every intern
// namespace: int64-fast-path rationals, non-integral rationals, huge
// integers past int64, and strings.
func internWorkload() []ast.Value {
	var vals []ast.Value
	for i := int64(-20); i < 20; i++ {
		vals = append(vals, ast.Int(i))
	}
	for d := int64(2); d < 8; d++ {
		vals = append(vals, ast.Value{Kind: ast.NumberValue, Num: big.NewRat(7, d)})
	}
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80))
	vals = append(vals, ast.Value{Kind: ast.NumberValue, Num: huge})
	for i := 0; i < 16; i++ {
		vals = append(vals, ast.Str(fmt.Sprintf("sym-%d", i)))
	}
	return vals
}

func TestInternHandleStability(t *testing.T) {
	for _, v := range internWorkload() {
		h1 := Intern(v)
		// A structurally equal but distinct Value must map to the same
		// handle.
		clone := v
		if v.Kind == ast.NumberValue {
			clone.Num = new(big.Rat).Set(v.Num)
		}
		h2 := Intern(clone)
		if h1 != h2 {
			t.Fatalf("Intern(%s) unstable: %d vs %d", v, h1, h2)
		}
		got := InternedValue(h1)
		if !got.Equal(v) {
			t.Fatalf("InternedValue(%d) = %s, want %s", h1, got, v)
		}
		if ValueKey(v) != v.Key() {
			t.Fatalf("ValueKey(%s) = %q, want %q", v, ValueKey(v), v.Key())
		}
	}
}

func TestInternDistinctValuesDistinctHandles(t *testing.T) {
	vals := internWorkload()
	seen := map[Handle]ast.Value{}
	for _, v := range vals {
		h := Intern(v)
		if prev, ok := seen[h]; ok && !prev.Equal(v) {
			t.Fatalf("handle %d aliases %s and %s", h, prev, v)
		}
		seen[h] = v
	}
	// 1/2 and 2/4 normalize to the same rational, so they must share.
	a := Intern(ast.Value{Kind: ast.NumberValue, Num: big.NewRat(1, 2)})
	b := Intern(ast.Value{Kind: ast.NumberValue, Num: big.NewRat(2, 4)})
	if a != b {
		t.Fatalf("1/2 and 2/4 interned to distinct handles %d, %d", a, b)
	}
	// Numeric "3" and string "3" live in disjoint namespaces.
	if Intern(ast.Int(3)) == Intern(ast.Str("3")) {
		t.Fatal("number 3 and string \"3\" share a handle")
	}
}

// TestInternConcurrent hammers the pool from parallel workers (run under
// -race in CI): every worker interning the same value must observe the
// same handle, and tuple fingerprints must agree with a fingerprint
// computed from the handles each worker saw.
func TestInternConcurrent(t *testing.T) {
	vals := internWorkload()
	const workers = 16
	handles := make([][]Handle, workers)
	fps := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hs := make([]Handle, len(vals))
			// Walk the values in a worker-dependent order so racing
			// first-interns hit different namespaces simultaneously.
			for i := range vals {
				j := (i + w*5) % len(vals)
				hs[j] = Intern(vals[j])
			}
			handles[w] = hs
			fps[w] = Tuple(vals).Fingerprint()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range vals {
			if handles[w][i] != handles[0][i] {
				t.Fatalf("worker %d saw handle %d for %s, worker 0 saw %d",
					w, handles[w][i], vals[i], handles[0][i])
			}
		}
		if fps[w] != fps[0] {
			t.Fatalf("worker %d fingerprint %x != worker 0 %x", w, fps[w], fps[0])
		}
	}
	// The fingerprint derived from the observed handles must equal the
	// Tuple.Fingerprint computed independently.
	if got := FingerprintHandles(handles[0]); got != fps[0] {
		t.Fatalf("FingerprintHandles = %x, Tuple.Fingerprint = %x", got, fps[0])
	}
	// vals holds one duplicate under normalization (7/7 == 1), so count
	// distinct canonical keys rather than slice length.
	distinct := map[string]bool{}
	for _, v := range vals {
		distinct[v.Key()] = true
	}
	if InternSize() < int64(len(distinct)) {
		t.Fatalf("InternSize() = %d, want >= %d", InternSize(), len(distinct))
	}
}

func TestFingerprintMatchesUninternedHashing(t *testing.T) {
	// Two tuples are equal iff their canonical keys are equal; the
	// interned fingerprint must respect that equivalence.
	tuples := []Tuple{
		Ints(1, 2, 3),
		Ints(1, 2, 3),
		Ints(3, 2, 1),
		Strs("a", "b"),
		Strs("a", "b"),
		TupleOf(ast.Int(1), ast.Str("1")),
		TupleOf(ast.Str("1"), ast.Int(1)),
	}
	for i, a := range tuples {
		for j, b := range tuples {
			sameKey := a.Key() == b.Key()
			sameFP := a.Fingerprint() == b.Fingerprint()
			if sameKey && !sameFP {
				t.Fatalf("tuples %d,%d equal by key but fingerprints differ", i, j)
			}
			if !sameKey && sameFP && a.Equal(b) {
				t.Fatalf("tuples %d,%d unequal by key but Equal", i, j)
			}
		}
	}
}

// TestInternConcurrentReadsDuringGrowth: handles resolve without a lock
// while writers grow the pool across chunk boundaries (run under -race in
// CI). Readers are handed each fresh handle as it is issued and resolve
// it at once, beside handles of the chunks that were there before: every
// one must give back the value and key it was issued for.
func TestInternConcurrentReadsDuringGrowth(t *testing.T) {
	type issued struct {
		v ast.Value
		h Handle
	}
	const writers, readers, perWriter = 2, 4, 3 * chunkSize
	old := internWorkload()
	oldH := make([]Handle, len(old))
	for i, v := range old {
		oldH[i] = Intern(v)
	}
	// The pool only grows, so its size names this run's fresh values.
	prefix, chunks := fmt.Sprintf("growth-%d", InternSize()), len(*internPool.dir.Load())
	feed := make(chan issued, 64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := ast.Str(fmt.Sprintf("%s-%d-%d", prefix, w, i))
				if i%2 == 1 {
					v = ast.Value{Kind: ast.NumberValue, Num: new(big.Rat).SetFrac(big.NewInt(InternSize()*8+int64(w)), big.NewInt(7))}
				}
				feed <- issued{v, Intern(v)}
			}
		}(w)
	}
	go func() { wg.Wait(); close(feed) }()
	bad := make(chan string, readers)
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			n := 0
			for is := range feed {
				k := n % len(old)
				n++
				switch {
				case !InternedValue(is.h).Equal(is.v) || internPool.slot(is.h).key != is.v.Key():
					bad <- fmt.Sprintf("fresh handle %d resolves to %s, issued for %s", is.h, InternedValue(is.h), is.v)
				case !InternedValue(oldH[k]).Equal(old[k]):
					bad <- fmt.Sprintf("old handle %d resolves to %s, issued for %s", oldH[k], InternedValue(oldH[k]), old[k])
				default:
					continue
				}
				return
			}
		}()
	}
	rg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}
	if grown := len(*internPool.dir.Load()) - chunks; grown < 2 {
		t.Errorf("%d fresh values opened %d chunks, want the readers to cross at least two boundaries", writers*perWriter, grown)
	}
}

// TestLookupKeyAgreesWithParseKey: LookupKey answers exactly the canonical
// keys of pooled symbols and int64s, with the value ParseKey and Canonical
// give, and interns nothing; every other key is left to the parser.
// PooledKey hits where LookupKey does, with the value's pooled rendering,
// and allocates nothing.
func TestLookupKeyAgreesWithParseKey(t *testing.T) {
	for _, v := range internWorkload() {
		Intern(v)
	}
	Intern(ast.Str(""))
	Intern(ast.Int(-1 << 63))
	Intern(ast.Int(1<<63 - 1))
	keys := []string{"", "$", "#", "$sym-3", "#0", "#7", "#-20", "#19", "#-9223372036854775808", "#9223372036854775807",
		// Not pooled, not canonical, or not an int64: the parser's.
		"$never-interned", "#123456789", "#-0", "#007", "#+7", "#7/2", "#9223372036854775808", "#1208925819614629174706176",
		"#-", "#1e3", "#0x7", "sym-3", "7"}
	for _, key := range keys {
		size := InternSize()
		got, ok := LookupKey(key)
		if InternSize() != size {
			t.Fatalf("LookupKey(%q) interned", key)
		}
		want, err := ast.ParseKey(key)
		canonical := err == nil && want.Key() == key
		var pooled bool
		if canonical {
			switch {
			case want.Kind == ast.StringValue:
				_, pooled = internPool.strs[want.Str]
			case want.Num.IsInt() && want.Num.Num().IsInt64():
				_, pooled = internPool.ints[want.Num.Num().Int64()]
			}
		}
		if ok != pooled || ok && (!got.Equal(want) || got != Canonical(want)) {
			t.Errorf("LookupKey(%q) = %v, %v; ParseKey gives %v (%v), pooled %v", key, got, ok, want, err, pooled)
		}
		b := []byte(key)
		if k, kok := PooledKey(b); kok != ok || ok && k != ValueKey(got) {
			t.Errorf("PooledKey(%q) = %q, %v; LookupKey hits: %v", key, k, kok, ok)
		}
		if n := testing.AllocsPerRun(10, func() { PooledKey(b) }); n != 0 {
			t.Errorf("PooledKey(%q) allocates %v objects", key, n)
		}
	}
}
