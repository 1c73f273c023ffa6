package relation

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/ast"
)

// orderedDomain mixes numbers and strings: Value.Compare puts every number
// before every string, and a range must follow it across the kinds.
var orderedDomain = []ast.Value{ast.Int(0), ast.Rat(1, 2), ast.Int(1), ast.Int(2), ast.Int(3), ast.Str("a"), ast.Str("b")}

func randomRange(rng *rand.Rand, arity int) Range {
	rg := Range{Col: rng.Intn(arity)}
	pick := func() ast.Value { return orderedDomain[rng.Intn(len(orderedDomain))] }
	switch rng.Intn(3) {
	case 0:
		rg.HasLo, rg.Lo = true, pick()
	case 1:
		rg.HasHi, rg.Hi = true, pick()
	default:
		rg.HasLo, rg.Lo, rg.HasHi, rg.Hi = true, pick(), true, pick()
	}
	rg.LoOpen, rg.HiOpen = rng.Intn(2) == 0, rng.Intn(2) == 0
	return rg
}

func inRange(rg Range, v ast.Value) bool {
	if rg.HasLo && (v.Compare(rg.Lo) < 0 || rg.LoOpen && v.Compare(rg.Lo) == 0) {
		return false
	}
	return !rg.HasHi || v.Compare(rg.Hi) < 0 || !rg.HiOpen && v.Compare(rg.Hi) == 0
}

// scanRange is RangeAppend's oracle, from Tuples(): the tuples of each
// range, sorted by the range's column (insertion order breaks ties, and
// positions follow insertion order), of the range holding the fewest,
// reversed when only an upper bound walks it.
func scanRange(r *Relation, ranges []Range) []Tuple {
	var best []Tuple
	for i, rg := range ranges {
		var in []Tuple
		for _, tu := range r.Tuples() {
			if inRange(rg, tu[rg.Col]) {
				in = append(in, tu)
			}
		}
		slices.SortStableFunc(in, func(a, b Tuple) int { return a[rg.Col].Compare(b[rg.Col]) })
		if !rg.HasLo && rg.HasHi {
			slices.Reverse(in)
		}
		if i == 0 || len(in) < len(best) {
			best = in
		}
	}
	return best
}

// tuplesOf materializes the handle rows RangeAppend returns.
func tuplesOf(rows [][]Handle) []Tuple {
	out := make([]Tuple, len(rows))
	for i, hs := range rows {
		out[i] = Tuple{}
		for _, h := range hs {
			out[i] = append(out[i], InternedValue(h))
		}
	}
	return out
}

func sameTuples(a, b []Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y Tuple) bool { return x.Equal(y) })
}

// TestOrderedIndexAgainstScan: over random inserts and deletes (which
// compact the relation every so often), RangeAppend on one
// or two random ranges — one- or two-sided, open or closed, across numbers
// and strings — equals the sorted filter of Tuples().
func TestOrderedIndexAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pick := func() ast.Value { return orderedDomain[rng.Intn(len(orderedDomain))] }
	r := New("l", 2)
	compactions := 0
	for batch := 0; batch < 300; batch++ {
		for i := 0; i < 20; i++ {
			tu := TupleOf(pick(), pick())
			if rng.Intn(2) == 0 {
				r.Insert(tu)
				continue
			}
			holes := r.holes
			r.Delete(tu)
			if r.holes < holes {
				compactions++
			}
		}
		ranges := []Range{randomRange(rng, 2)}
		if rng.Intn(2) == 0 {
			ranges = append(ranges, randomRange(rng, 2))
		}
		got, want := tuplesOf(r.RangeAppend(nil, ranges)), scanRange(r, ranges)
		if !sameTuples(got, want) {
			t.Fatalf("batch %d ranges %+v:\nRangeAppend = %v\nscan        = %v", batch, ranges, got, want)
		}
	}
	if compactions == 0 {
		t.Fatal("no delete compacted the relation")
	}
}

// TestCompactionIsNotAnIndexBuild: compaction renumbers the ordered
// indexes in place — no entry slice regrows — and refills the hash index;
// no build is counted, and they answer as before.
func TestCompactionIsNotAnIndexBuild(t *testing.T) {
	r := New("l", 2)
	for i := int64(0); i < 200; i++ {
		r.Insert(Ints(i%17, i))
	}
	all := []Range{{Col: 0, Lo: ast.Int(5), HasLo: true}, {Col: 1, Hi: ast.Int(150), HasHi: true}}
	r.RangeAppend(nil, all)
	r.LookupColsAppend(nil, []int{0}, []Handle{Intern(ast.Int(0))}) // builds the hash index
	caps := []int{cap(r.ord[0].pos), cap(r.ord[1].pos)}
	builds := IndexBuilds()
	compacted := false
	for i := int64(0); i < 150; i++ {
		holes := r.holes
		r.Delete(Ints(i%17, i))
		compacted = compacted || r.holes < holes
	}
	if !compacted {
		t.Fatal("150 deletes of 200 tuples did not compact the relation")
	}
	if n := IndexBuilds() - builds; n != 0 {
		t.Errorf("compaction counted %d index builds", n)
	}
	if got := []int{cap(r.ord[0].pos), cap(r.ord[1].pos)}; !slices.Equal(got, caps) {
		t.Errorf("compaction reallocated the ordered indexes: capacities %v, were %v", got, caps)
	}
	for _, rg := range [][]Range{all, all[:1], all[1:]} {
		if got, want := tuplesOf(r.RangeAppend(nil, rg)), scanRange(r, rg); !sameTuples(got, want) {
			t.Errorf("after compaction, %+v: RangeAppend = %v, scan = %v", rg, got, want)
		}
	}
	if got := lookupCols(r, []int{0}, []ast.Value{ast.Int(160 % 17)}); len(got) != 3 {
		t.Errorf("after compaction, Lookup(0, %d) = %v, want 3 tuples", 160%17, got)
	}
}

// TestOrderedIndexConcurrent: readers build the ordered indexes lazily and
// range over them while a writer inserts and deletes; meaningful under
// -race. Afterwards every range agrees with the scan.
func TestOrderedIndexConcurrent(t *testing.T) {
	r := New("l", 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pick := func() ast.Value { return orderedDomain[rng.Intn(len(orderedDomain))] }
			for i := 0; i < 400; i++ {
				if seed == 0 {
					if tu := TupleOf(pick(), pick()); rng.Intn(2) == 0 {
						r.Insert(tu)
					} else {
						r.Delete(tu)
					}
					continue
				}
				r.RangeAppend(nil, []Range{randomRange(rng, 2), randomRange(rng, 2)})
			}
		}(int64(w))
	}
	wg.Wait()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		rg := []Range{randomRange(rng, 2)}
		if got, want := tuplesOf(r.RangeAppend(nil, rg)), scanRange(r, rg); !sameTuples(got, want) {
			t.Fatalf("%+v: RangeAppend = %v, scan = %v", rg, got, want)
		}
	}
}

// TestOrderedIndexAllocations: a warm range lookup allocates nothing, and
// keeping two ordered indexes costs Insert and Delete no allocation.
func TestOrderedIndexAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	plain, ordered := New("l", 2), New("l", 2)
	for i := int64(0); i < 1000; i++ {
		plain.Insert(Ints(i, i+20))
		ordered.Insert(Ints(i, i+20))
	}
	ranges := []Range{{Col: 0, Hi: ast.Int(500), HasHi: true}, {Col: 1, Lo: ast.Int(500), HasLo: true}}
	dst := ordered.RangeAppend(nil, ranges)
	if n := testing.AllocsPerRun(100, func() { dst = ordered.RangeAppend(dst[:0], ranges) }); n != 0 {
		t.Errorf("a warm RangeAppend allocates %v objects", n)
	}
	// One tuple sorts last in both columns, one in the middle: the tail
	// append and truncation, and the insertion and removal inside.
	writes := func(r *Relation) float64 {
		return testing.AllocsPerRun(100, func() {
			for _, tu := range []Tuple{Ints(2000, 2000), Ints(250, 260)} {
				r.Insert(tu)
			}
			for _, tu := range []Tuple{Ints(250, 260), Ints(2000, 2000)} {
				r.Delete(tu)
			}
		})
	}
	if without, with := writes(plain), writes(ordered); with > without {
		t.Errorf("Insert+Delete allocate %v objects with two ordered indexes, %v without", with, without)
	}
}

// TestOrderedSeekInt64FastPath: an ordered index compares two int64
// integers as int64s and everything else by ast.Value.Compare. Over int64
// extremes, integers wider than int64, fractions beside them and strings,
// the prepared comparison agrees with Value.Compare on every pair, and
// RangeAppend agrees with the scan on every bound — the pooled values and
// ones the pool does not hold.
func TestOrderedSeekInt64FastPath(t *testing.T) {
	wide := func(shift uint, neg bool) ast.Value {
		n := new(big.Int).Lsh(big.NewInt(1), shift)
		if neg {
			n.Neg(n)
		}
		return ast.Value{Kind: ast.NumberValue, Num: new(big.Rat).SetInt(n)}
	}
	frac := func(n *big.Int, d int64) ast.Value {
		return ast.Value{Kind: ast.NumberValue, Num: new(big.Rat).SetFrac(n, big.NewInt(d))}
	}
	maxPlus := new(big.Int).Add(big.NewInt(math.MaxInt64), big.NewInt(1))
	minMinus := new(big.Int).Sub(big.NewInt(math.MinInt64), big.NewInt(1))
	stored := []ast.Value{
		ast.Int(math.MinInt64), ast.Int(math.MinInt64 + 1), ast.Int(-1), ast.Int(0), ast.Int(1),
		ast.Int(math.MaxInt64 - 1), ast.Int(math.MaxInt64),
		{Kind: ast.NumberValue, Num: new(big.Rat).SetInt(maxPlus)}, {Kind: ast.NumberValue, Num: new(big.Rat).SetInt(minMinus)},
		wide(70, false), wide(70, true),
		ast.Rat(1, 2), ast.Rat(-1, 2), frac(big.NewInt(math.MaxInt64), 2), frac(new(big.Int).Mul(big.NewInt(2), big.NewInt(math.MaxInt64)), 1),
		ast.Str(""), ast.Str("a"), ast.Str("b"),
	}
	// Bounds the pool holds nowhere in this package's tests.
	unpooled := []ast.Value{
		ast.Int(math.MaxInt64 - 3), ast.Int(math.MinInt64 + 3), wide(71, false), wide(71, true),
		frac(big.NewInt(2*math.MaxInt64/3), 3), ast.Rat(3, 7), ast.Str("ab"),
	}
	for _, v := range unpooled {
		if _, ok := HandleOf(v); ok {
			t.Fatalf("bound %s is already pooled", v)
		}
	}
	bounds := append(append([]ast.Value(nil), stored...), unpooled...)
	for _, a := range bounds {
		pa := prepared(a)
		for _, b := range bounds {
			pb := prepared(b)
			if got, want := pa.compare(&pb), a.Compare(b); got != want {
				t.Errorf("compare(%s, %s) = %d, Value.Compare %d", a, b, got, want)
			}
		}
	}
	r := New("x", 1)
	for _, v := range stored {
		r.Insert(Tuple{v})
	}
	for i, a := range stored {
		for _, b := range stored[i:] {
			ha, hb := Intern(a), Intern(b)
			if got, want := compareHandles(ha, hb), a.Compare(b); got != want {
				t.Errorf("compareHandles(%s, %s) = %d, Value.Compare %d", a, b, got, want)
			}
		}
	}
	for _, v := range bounds {
		for _, open := range []bool{false, true} {
			for _, rg := range []Range{
				{Col: 0, Lo: v, HasLo: true, LoOpen: open},
				{Col: 0, Hi: v, HasHi: true, HiOpen: open},
				{Col: 0, Lo: v, HasLo: true, LoOpen: open, Hi: ast.Int(math.MaxInt64), HasHi: true},
			} {
				if got, want := tuplesOf(r.RangeAppend(nil, []Range{rg})), scanRange(r, []Range{rg}); !sameTuples(got, want) {
					t.Errorf("RangeAppend(%+v) = %v, scan %v", rg, got, want)
				}
			}
		}
	}
	for _, v := range unpooled {
		if _, ok := HandleOf(v); ok {
			t.Errorf("a seek interned its bound %s", v)
		}
	}
}
