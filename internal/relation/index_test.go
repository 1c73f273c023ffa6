package relation

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ast"
)

// bruteLookup is the index oracle: filter the full snapshot on the
// bound columns.
func bruteLookup(r *Relation, cols []int, vals []ast.Value) []Tuple {
	var out []Tuple
	for _, tu := range r.Tuples() {
		ok := true
		for i, c := range cols {
			if !tu[c].Equal(vals[i]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, tu)
		}
	}
	return out
}

// lookupCols is the Tuple form of a hash probe the tests compare:
// LookupColsAppend's rows for cols given in any order, vals in the same
// order, materialized.
func lookupCols(r *Relation, cols []int, vals []ast.Value) []Tuple {
	sorted, svals := r.normalizeCols(cols, vals)
	var out []Tuple
	for _, hs := range r.LookupColsAppend(nil, sorted, AppendHandles(nil, svals)) {
		out = append(out, Materialize(hs))
	}
	return out
}

// hasIndex reports whether the relation has built the hash index on the
// sorted column set.
func hasIndex(r *Relation, cols ...int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.midx[colsMask(cols)]
	return ok
}

func sameTupleSet(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]int{}
	for _, tu := range a {
		seen[tu.Key()]++
	}
	for _, tu := range b {
		seen[tu.Key()]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestLookupColsAgainstBruteForce(t *testing.T) {
	// Random insert/delete workload, cross-checked against a full-scan
	// filter on several column sets after every batch. The small value
	// domain forces bucket sharing, duplicates and deletions of present
	// tuples.
	rng := rand.New(rand.NewSource(7))
	r := New("r", 3)
	colSets := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}, {2, 0}}
	for batch := 0; batch < 30; batch++ {
		for i := 0; i < 40; i++ {
			tu := Ints(int64(rng.Intn(4)), int64(rng.Intn(4)), int64(rng.Intn(4)))
			if rng.Intn(3) == 0 {
				r.Delete(tu)
			} else {
				r.Insert(tu)
			}
		}
		for _, cols := range colSets {
			vals := make([]ast.Value, len(cols))
			for i := range vals {
				vals[i] = ast.Int(int64(rng.Intn(4)))
			}
			got := lookupCols(r, cols, vals)
			want := bruteLookup(r, cols, vals)
			if !sameTupleSet(got, want) {
				t.Fatalf("batch %d cols %v vals %v: LookupCols = %v, brute force = %v", batch, cols, vals, got, want)
			}
		}
	}
}

func TestIndexPersistsAcrossCompaction(t *testing.T) {
	r := New("r", 2)
	lookupCols(r, []int{0, 1}, []ast.Value{ast.Int(0), ast.Int(0)}) // builds the index
	for i := int64(0); i < 1000; i++ {
		r.Insert(Ints(i%10, i))
	}
	for i := int64(0); i < 900; i++ {
		r.Delete(Ints(i%10, i))
	}
	// 900 deletes on 1000 tuples crosses the compaction threshold; the
	// signature must survive the rebuild and answer correctly.
	if !hasIndex(r, 0, 1) {
		t.Fatalf("index (0,1) dropped by compaction; indexes = %v", r.midx)
	}
	got := lookupCols(r, []int{0, 1}, []ast.Value{ast.Int(950 % 10), ast.Int(950)})
	if len(got) != 1 {
		t.Fatalf("probe after compaction = %d tuples, want 1", len(got))
	}
}

func TestIndexHandle(t *testing.T) {
	r := New("r", 3)
	r.Insert(Ints(1, 2, 3))
	r.Insert(Ints(1, 5, 3))
	// Columns given unsorted are probed sorted, their values permuted to
	// match: col 0 then col 2.
	cols, vals := r.normalizeCols([]int{2, 0}, []ast.Value{ast.Int(3), ast.Int(1)})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || !vals[0].Equal(ast.Int(1)) {
		t.Fatalf("cols = %v vals = %v, want [0 2] [1 3]", cols, vals)
	}
	if got := lookupCols(r, []int{2, 0}, []ast.Value{ast.Int(3), ast.Int(1)}); len(got) != 2 {
		t.Fatalf("Probe = %d tuples, want 2", len(got))
	}
	// The index the probe built stays valid across mutation.
	r.Insert(Ints(1, 9, 3))
	r.Delete(Ints(1, 2, 3))
	if got := lookupCols(r, []int{0, 2}, []ast.Value{ast.Int(1), ast.Int(3)}); len(got) != 2 {
		t.Fatalf("Probe after mutation = %d tuples, want 2", len(got))
	}
}

func TestIndexColumnValidation(t *testing.T) {
	r := New("r", 2)
	for _, cols := range [][]int{{2}, {-1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cols %v: no panic", cols)
				}
			}()
			r.LookupColsAppend(nil, cols, make([]Handle, len(cols)))
		}()
	}
	// cols/vals length mismatch.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch: no panic")
			}
		}()
		r.LookupColsAppend(nil, []int{0, 1}, []Handle{Intern(ast.Int(1))})
	}()
}

func TestIndexCounters(t *testing.T) {
	b0, p0 := IndexBuilds(), IndexProbes()
	r := New("r", 2)
	r.Insert(Ints(1, 2))
	key := AppendHandles(nil, Ints(1, 2))
	r.LookupColsAppend(nil, []int{0, 1}, key) // lazy build + probe
	r.LookupColsAppend(nil, []int{0, 1}, key) // probe only
	if IndexBuilds()-b0 < 1 {
		t.Error("IndexBuilds did not advance on a lazy build")
	}
	if IndexProbes()-p0 < 2 {
		t.Error("IndexProbes did not advance on probes")
	}
}

func TestConcurrentIndexedAccess(t *testing.T) {
	// Races between lazy index builds, probes and mutation; meaningful
	// under -race.
	r := New("r", 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				tu := Ints(int64(rng.Intn(5)), int64(rng.Intn(5)))
				switch rng.Intn(4) {
				case 0:
					r.Insert(tu)
				case 1:
					r.Delete(tu)
				case 2:
					lookupCols(r, []int{0, 1}, []ast.Value{tu[0], tu[1]})
				default:
					lookupCols(r, []int{1}, []ast.Value{tu[1]})
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// Post-race sanity: every probe must agree with the scan oracle.
	for a := int64(0); a < 5; a++ {
		for b := int64(0); b < 5; b++ {
			vals := []ast.Value{ast.Int(a), ast.Int(b)}
			if got, want := lookupCols(r, []int{0, 1}, vals), bruteLookup(r, []int{0, 1}, vals); !sameTupleSet(got, want) {
				t.Fatalf("probe (%d,%d) = %v, scan = %v", a, b, got, want)
			}
		}
	}
}

func TestFirstColsAgainstLookupCols(t *testing.T) {
	// The existence probe finds a tuple exactly when LookupCols finds one
	// that also passes the same-position filter, over the random
	// insert/delete workload (holes, compaction, lazily built indexes).
	rng := rand.New(rand.NewSource(17))
	r := New("r", 3)
	colSets := [][]int{{}, {0}, {2}, {0, 1}, {2, 0}}
	sames := [][][2]int{nil, {{0, 1}}, {{1, 2}}}
	for batch := 0; batch < 40; batch++ {
		for i := 0; i < 40; i++ {
			tu := Ints(int64(rng.Intn(4)), int64(rng.Intn(4)), int64(rng.Intn(4)))
			if rng.Intn(3) == 0 {
				r.Delete(tu)
			} else {
				r.Insert(tu)
			}
		}
		for _, cols := range colSets {
			vals := make([]ast.Value, len(cols))
			for i := range vals {
				vals[i] = ast.Int(int64(rng.Intn(4)))
			}
			for _, same := range sames {
				want := false
				for _, tu := range lookupCols(r, cols, vals) {
					ok := true
					for _, p := range same {
						ok = ok && tu[p[0]].Equal(tu[p[1]])
					}
					want = want || ok
				}
				row := r.FirstCols(cols, vals, same)
				if (row != nil) != want {
					t.Fatalf("batch %d cols %v vals %v same %v: FirstCols = %v, a match exists: %v", batch, cols, vals, same, row, want)
				}
				if row == nil {
					continue
				}
				got := Materialize(row)
				if !r.Contains(got) {
					t.Fatalf("FirstCols returned %v, which the relation does not hold", got)
				}
				for i, c := range cols {
					if !got[c].Equal(vals[i]) {
						t.Fatalf("FirstCols(%v = %v) returned %v", cols, vals, got)
					}
				}
			}
		}
	}
}

func TestFirstColsHandlesAndAllocations(t *testing.T) {
	r := New("emp", 2)
	r.Insert(TupleOf(ast.Str("ann"), ast.Rat(4, 2)))
	// 2, 2/1 and the stored 4/2 are one key.
	for _, v := range []ast.Value{ast.Int(2), ast.Rat(2, 1), ast.Rat(4, 2)} {
		if got := r.FirstCols([]int{1}, []ast.Value{v}, nil); got == nil {
			t.Errorf("FirstCols on %s found nothing", v)
		}
	}
	if got := r.FirstCols([]int{1}, []ast.Value{ast.Int(3)}, nil); got != nil {
		t.Errorf("FirstCols on 3 = %v", got)
	}
	cols, vals := []int{1}, []ast.Value{ast.Int(2)}
	if n := testing.AllocsPerRun(100, func() { r.FirstCols(cols, vals, nil) }); n != 0 {
		t.Errorf("FirstCols allocates %v times per probe", n)
	}
}
