package relation

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ast"
)

func TestTupleKeyUnambiguous(t *testing.T) {
	// Length-prefixed encoding must keep ("ab","c") and ("a","bc") apart.
	a := Strs("ab", "c")
	b := Strs("a", "bc")
	if a.Key() == b.Key() {
		t.Error("tuple keys collide across component boundaries")
	}
	if !a.Equal(Strs("ab", "c")) {
		t.Error("Equal failed on identical tuples")
	}
	if a.Equal(b) {
		t.Error("Equal succeeded on distinct tuples")
	}
}

func TestInsertDeleteContains(t *testing.T) {
	r := New("emp", 3)
	jones := TupleOf(ast.Str("jones"), ast.Str("shoe"), ast.Int(50))
	if !r.Insert(jones) {
		t.Error("first insert reported no change")
	}
	if r.Insert(jones) {
		t.Error("duplicate insert reported change")
	}
	if r.Len() != 1 || !r.Contains(jones) {
		t.Error("relation state wrong after insert")
	}
	if !r.Delete(jones) {
		t.Error("delete of present tuple reported no change")
	}
	if r.Delete(jones) {
		t.Error("delete of absent tuple reported change")
	}
	if r.Len() != 0 || r.Contains(jones) {
		t.Error("relation state wrong after delete")
	}
}

func TestEachOrderAndSnapshot(t *testing.T) {
	r := New("r", 1)
	for i := int64(0); i < 10; i++ {
		r.Insert(Ints(i))
	}
	r.Delete(Ints(3))
	ts := r.Tuples()
	if len(ts) != 9 {
		t.Fatalf("len = %d", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i-1][0].Compare(ts[i][0]) >= 0 {
			t.Error("insertion order not preserved")
		}
	}
}

func TestLookup(t *testing.T) {
	r := New("emp", 2)
	r.Insert(Strs("a", "sales"))
	r.Insert(Strs("b", "sales"))
	r.Insert(Strs("c", "toy"))
	got := lookupCols(r, []int{1}, []ast.Value{ast.Str("sales")})
	if len(got) != 2 {
		t.Fatalf("Lookup(sales) = %d tuples, want 2", len(got))
	}
	// The index must stay correct across subsequent inserts and deletes.
	r.Insert(Strs("d", "sales"))
	r.Delete(Strs("a", "sales"))
	got = lookupCols(r, []int{1}, []ast.Value{ast.Str("sales")})
	if len(got) != 2 {
		t.Fatalf("Lookup(sales) after mutation = %d tuples, want 2", len(got))
	}
	for _, tu := range got {
		if tu[0].Equal(ast.Str("a")) {
			t.Error("deleted tuple returned by Lookup")
		}
	}
}

func TestCompaction(t *testing.T) {
	r := New("r", 1)
	for i := int64(0); i < 1000; i++ {
		r.Insert(Ints(i))
	}
	for i := int64(0); i < 900; i++ {
		r.Delete(Ints(i))
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	for i := int64(900); i < 1000; i++ {
		if !r.Contains(Ints(i)) {
			t.Fatalf("tuple %d missing after compaction", i)
		}
	}
	if got := lookupCols(r, []int{0}, []ast.Value{ast.Int(950)}); len(got) != 1 {
		t.Errorf("Lookup after compaction = %d tuples", len(got))
	}
}

func TestCloneAndEqual(t *testing.T) {
	r := New("r", 2)
	r.Insert(Ints(1, 2))
	r.Insert(Ints(3, 4))
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone not equal")
	}
	c.Insert(Ints(5, 6))
	if r.Equal(c) {
		t.Error("mutating clone affected equality")
	}
	if r.Len() != 2 {
		t.Error("mutating clone affected original")
	}
}

func TestRandomizedSetSemantics(t *testing.T) {
	// The relation must behave exactly like a map-based set under a
	// random workload.
	rng := rand.New(rand.NewSource(1))
	r := New("r", 2)
	ref := map[string]Tuple{}
	for i := 0; i < 5000; i++ {
		tu := Ints(int64(rng.Intn(30)), int64(rng.Intn(30)))
		if rng.Intn(2) == 0 {
			r.Insert(tu)
			ref[tu.Key()] = tu
		} else {
			r.Delete(tu)
			delete(ref, tu.Key())
		}
	}
	if r.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", r.Len(), len(ref))
	}
	for _, tu := range ref {
		if !r.Contains(tu) {
			t.Fatalf("missing tuple %v", tu)
		}
	}
}

func TestTermsToTuple(t *testing.T) {
	tu, err := TermsToTuple([]ast.Term{ast.CInt(1), ast.CStr("a")})
	if err != nil || len(tu) != 2 {
		t.Fatalf("TermsToTuple: %v %v", tu, err)
	}
	if _, err := TermsToTuple([]ast.Term{ast.V("X")}); err == nil {
		t.Error("variable accepted as tuple component")
	}
}

func TestAccessors(t *testing.T) {
	r := New("emp", 2)
	if r.Name() != "emp" || r.Arity() != 2 {
		t.Error("accessors wrong")
	}
	tu := TupleOf(ast.Str("a"), ast.Int(1))
	terms := tu.Terms()
	if len(terms) != 2 || !terms[0].IsConst() {
		t.Errorf("Terms = %v", terms)
	}
	if got := tu.String(); got != "(a,1)" {
		t.Errorf("Tuple String = %q", got)
	}
	r.Insert(tu)
	if got := r.String(); got != "emp{(a,1)}" {
		t.Errorf("Relation String = %q", got)
	}
}

// The data version moves exactly when the contents do.
func TestVersionCountsChanges(t *testing.T) {
	r := New("p", 1)
	step := func(what string, moved bool, f func()) {
		t.Helper()
		before := r.Version()
		f()
		if got := r.Version() != before; got != moved {
			t.Errorf("%s: version moved=%v, want %v", what, got, moved)
		}
	}
	step("new tuple", true, func() { r.Insert(Ints(1)) })
	step("duplicate insert", false, func() { r.Insert(Ints(1)) })
	step("absent delete", false, func() { r.Delete(Ints(2)) })
	step("delete", true, func() { r.Delete(Ints(1)) })
}

// A duplicate insert is decided before anything is allocated for it:
// semi-naive rounds emit mostly duplicates.
func TestInsertDuplicateAllocatesNothing(t *testing.T) {
	r := New("p", 2)
	tu := Ints(1, 2)
	r.Insert(tu)
	if allocs := testing.AllocsPerRun(100, func() { r.Insert(tu) }); allocs != 0 {
		t.Errorf("duplicate insert allocates %.0f times", allocs)
	}
}

func TestTuplesAppendSkipsHolesAndSeesNullary(t *testing.T) {
	r := New("p", 1)
	r.Insert(Ints(1))
	r.Insert(Ints(2))
	r.Delete(Ints(1))
	got := r.TuplesAppend(nil)
	if len(got) != 1 || len(got[0]) != 1 || !InternedValue(got[0][0]).Equal(ast.Int(2)) {
		t.Errorf("TuplesAppend = %v", got)
	}
	z := New("panic", 0)
	z.Insert(Tuple{})
	if n := len(z.TuplesAppend(nil)); n != 1 {
		t.Errorf("TuplesAppend returned %d rows of a 0-ary relation holding one", n)
	}
}

// TestCompactInPlaceAgreesWithFresh: compaction shifts the live entries
// down in place and refills the indexes, and every read then answers as on
// a relation built fresh from the live tuples — orders included: insertion
// order for TuplesAppend, bucket order for LookupColsAppend and FirstCols,
// index order for RangeAppend. Churn crosses many compactions with one
// hash index and two ordered indexes kept. A relation that drained keeps
// no arrays sized for what it once held.
func TestCompactInPlaceAgreesWithFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	const width = 30
	pick := func() ast.Value { return ast.Int(int64(rng.Intn(width))) }
	r := New("l", 2)
	r.LookupColsAppend(nil, []int{0}, []Handle{Intern(ast.Int(0))}) // builds the hash index
	all := []Range{{Col: 0, Lo: ast.Int(0), HasLo: true}, {Col: 1, Lo: ast.Int(0), HasLo: true}}
	r.RangeAppend(nil, all)
	var inserted []Tuple
	compactions := 0
	for compactions < 12 {
		if rng.Intn(2) == 0 || len(inserted) == 0 {
			tu := TupleOf(pick(), pick())
			r.Insert(tu)
			inserted = append(inserted, tu)
			continue
		}
		holes := r.holes
		r.Delete(inserted[rng.Intn(len(inserted))])
		if r.holes >= holes {
			continue
		}
		compactions++
		fresh := New("l", 2)
		for _, tu := range r.Tuples() {
			fresh.Insert(tu)
		}
		fresh.LookupColsAppend(nil, []int{0}, []Handle{Intern(ast.Int(0))})
		if got, want := tuplesOf(r.TuplesAppend(nil)), tuplesOf(fresh.TuplesAppend(nil)); !sameTuples(got, want) {
			t.Fatalf("compaction %d: TuplesAppend = %v, fresh %v", compactions, got, want)
		}
		for a := int64(0); a < width; a++ {
			v := ast.Int(a)
			key := []Handle{Intern(v)}
			if got, want := tuplesOf(r.LookupColsAppend(nil, []int{0}, key)), tuplesOf(fresh.LookupColsAppend(nil, []int{0}, key)); !sameTuples(got, want) {
				t.Fatalf("compaction %d: LookupColsAppend(%v) = %v, fresh %v", compactions, v, got, want)
			}
			for _, same := range [][][2]int{nil, {{0, 1}}} {
				if got, want := r.FirstCols([]int{0}, []ast.Value{v}, same), fresh.FirstCols([]int{0}, []ast.Value{v}, same); !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("compaction %d: FirstCols(%v, %v) = %v, fresh %v", compactions, v, same, got, want)
				}
			}
			for b := int64(0); b < width; b++ {
				if tu := Ints(a, b); r.Contains(tu) != fresh.Contains(tu) {
					t.Fatalf("compaction %d: Contains%v = %v, fresh %v", compactions, tu, r.Contains(tu), fresh.Contains(tu))
				}
			}
		}
		for i := 0; i < 20; i++ {
			rg := Range{Col: rng.Intn(2)}
			switch rng.Intn(3) {
			case 0:
				rg.HasLo, rg.Lo = true, pick()
			case 1:
				rg.HasHi, rg.Hi = true, pick()
			default:
				rg.HasLo, rg.Lo, rg.HasHi, rg.Hi = true, pick(), true, pick()
			}
			rg.LoOpen, rg.HiOpen = rng.Intn(2) == 0, rng.Intn(2) == 0
			if got, want := tuplesOf(r.RangeAppend(nil, []Range{rg})), tuplesOf(fresh.RangeAppend(nil, []Range{rg})); !sameTuples(got, want) {
				t.Fatalf("compaction %d: RangeAppend(%+v) = %v, fresh %v", compactions, rg, got, want)
			}
		}
	}
	// Retention: a relation drained to a few tuples reallocates its
	// arrays, and no compaction on the way down keeps more than the bound.
	big := New("r", 1)
	for i := int64(0); i < 10000; i++ {
		big.Insert(Ints(i))
	}
	big.RangeAppend(nil, all[:1])
	for i := int64(0); i < 9990; i++ {
		holes := big.holes
		big.Delete(Ints(i))
		if big.holes >= holes {
			continue
		}
		if limit := 4 * max(big.Len(), 64); cap(big.rows) > limit || cap(big.next) > limit || cap(big.ord[0].pos) > limit {
			t.Errorf("%d live tuples keep capacities %d/%d/%d after a compaction, want at most %d",
				big.Len(), cap(big.rows), cap(big.next), cap(big.ord[0].pos), limit)
		}
	}
	if big.Len() != 10 {
		t.Fatalf("drained relation holds %d tuples, want 10", big.Len())
	}
}

// TestChurnReallocatesNothing: a relation cycled between 0 and 32 live
// rows — a log of pending writes — with a hash index (keyed by eight
// values that keep coming back) and an ordered index allocates nothing
// after its first compaction but the handle rows of the tuples it stores,
// across 20 compactions more. The bytes come from
// runtime.MemStats: testing.AllocsPerRun counts whole objects per run and
// would hide a reallocation every few dozen deletes.
func TestChurnReallocatesNothing(t *testing.T) {
	const width, most = 4096, 32
	rows := make([][]Handle, width)
	for i := range rows {
		rows[i] = []Handle{Intern(ast.Int(int64(i))), Intern(ast.Int(int64(i % 8)))}
	}
	r := New("log", 2)
	r.LookupColsAppend(nil, []int{1}, rows[0][1:])
	r.RangeAppend(nil, []Range{{Col: 0, Lo: ast.Int(0), HasLo: true}})
	rng := rand.New(rand.NewSource(51))
	live := make([]int, 0, most)
	seq := 0
	// cycle fills the relation to most rows and drains it in a random
	// order; it returns the compactions the drain made.
	cycle := func() (compactions int) {
		for range most {
			r.InsertHandles(rows[seq%width])
			live = append(live, seq%width)
			seq++
		}
		for len(live) > 0 {
			i := rng.Intn(len(live))
			holes := r.holes
			r.DeleteHandles(rows[live[i]])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if r.holes < holes {
				compactions++
			}
		}
		return compactions
	}
	for cycle() == 0 {
	}
	if got := r.LookupColsAppend(nil, []int{1}, rows[0][1:]); r.Len() != 0 || len(got) != 0 {
		t.Fatalf("a drained relation holds %d rows, %d of them under key 0", r.Len(), len(got))
	}
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// The runtime can allocate inside a window of its own accord (an OS
	// thread's structs, a timer's object), which only ever adds bytes: the
	// least excess of three windows counts.
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cycles := 0
		for compactions := 0; compactions < 20; cycles++ {
			compactions += cycle()
		}
		runtime.ReadMemStats(&after)
		// A stored row is its two handles, one 8-byte object.
		least = min(least, after.TotalAlloc-before.TotalAlloc-uint64(8*most*cycles))
	}
	if least != 0 {
		t.Errorf("20 compactions allocated %d B beyond the rows they store", least)
	}
}

// TestCallerMutationReachesNoStoredTuple: a relation keeps the handles of
// what it was given, not the caller's values, so a caller that changes a
// big.Rat it inserted changes no read — Tuples, Contains, RangeAppend (its
// ordered index built before the insert or after the change) and
// LookupColsAppend all still see the inserted 5.
func TestCallerMutationReachesNoStoredTuple(t *testing.T) {
	for _, early := range []bool{true, false} {
		r := New("m", 1)
		from := []Range{{Col: 0, Lo: ast.Int(0), HasLo: true}}
		if early {
			r.RangeAppend(nil, from)
		}
		five := ast.Int(5)
		for _, tu := range []Tuple{Ints(1), {five}, Ints(9)} {
			r.Insert(tu)
		}
		five.Num.SetInt64(7)
		if !early {
			r.RangeAppend(nil, from)
		}
		if got := r.Tuples(); !sameTuples(got, []Tuple{Ints(1), Ints(5), Ints(9)}) {
			t.Errorf("early=%v: Tuples = %v", early, got)
		}
		if !r.Contains(Ints(5)) || r.Contains(Ints(7)) {
			t.Errorf("early=%v: Contains(5) = %v, Contains(7) = %v", early, r.Contains(Ints(5)), r.Contains(Ints(7)))
		}
		if got := tuplesOf(r.RangeAppend(nil, []Range{PointRange(0, ast.Int(5))})); !sameTuples(got, []Tuple{Ints(5)}) {
			t.Errorf("early=%v: RangeAppend at 5 = %v", early, got)
		}
		if got := tuplesOf(r.RangeAppend(nil, []Range{{Col: 0, Lo: ast.Int(6), HasLo: true}})); !sameTuples(got, []Tuple{Ints(9)}) {
			t.Errorf("early=%v: RangeAppend over [6,∞) = %v", early, got)
		}
		if got := tuplesOf(r.LookupColsAppend(nil, []int{0}, []Handle{Intern(ast.Int(5))})); !sameTuples(got, []Tuple{Ints(5)}) {
			t.Errorf("early=%v: LookupColsAppend at 5 = %v", early, got)
		}
	}
}

// TestRetainedBytesPerStoredTuple pins what a stored 3-ary tuple over
// pooled values retains: its handle row and its share of the relation's
// rows, chain and membership index — no copy of its values.
func TestRetainedBytesPerStoredTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const n = 1 << 14
	nums := make([]ast.Value, n)
	for i := range nums {
		nums[i] = Canonical(ast.Int(int64(i)))
	}
	strs := []ast.Value{Canonical(ast.Str("a")), Canonical(ast.Str("b")), Canonical(ast.Str("c"))}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := New("t", 3)
	for i := 0; i < n; i++ {
		r.Insert(Tuple{nums[i], nums[i*7%n], strs[i%3]})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(r)
	t.Logf("%.1f B retained per stored tuple", per)
	if per > 100 {
		t.Errorf("a stored 3-ary tuple retains %.1f B, want at most 100", per)
	}
}
