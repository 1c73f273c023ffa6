package store

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
)

func TestEnsureArityConflict(t *testing.T) {
	s := New()
	if _, err := s.Ensure("emp", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ensure("emp", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ensure("emp", 2); err == nil {
		t.Error("arity conflict accepted")
	}
}

func TestInsertDeleteContains(t *testing.T) {
	s := New()
	tu := relation.Strs("jones", "shoe")
	if ok, err := s.Insert("emp", tu); err != nil || !ok {
		t.Fatalf("Insert: %v %v", ok, err)
	}
	if !s.Contains("emp", tu) {
		t.Error("tuple missing")
	}
	if !s.Delete("emp", tu) {
		t.Error("delete failed")
	}
	if s.Delete("absent", tu) {
		t.Error("delete from absent relation reported change")
	}
}

func TestReadAccounting(t *testing.T) {
	s := New()
	for i := int64(0); i < 10; i++ {
		if _, err := s.Insert("r", relation.Ints(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Tuples("r")
	if got := s.Reads("r"); got != 10 {
		t.Errorf("Reads = %d, want 10", got)
	}
	lookupCols(s, "r", 1, []int{0}, []ast.Value{ast.Int(3)})
	if got := s.Reads("r"); got != 11 {
		t.Errorf("Reads = %d, want 11", got)
	}
	if got := s.TotalReads(); got != 11 {
		t.Errorf("TotalReads = %d, want 11", got)
	}
	s.ResetReads()
	if got := s.TotalReads(); got != 0 {
		t.Errorf("TotalReads after reset = %d", got)
	}
	// Contains must not charge reads: membership probes are free index
	// hits, which matters for the simulator's accounting.
	s.Contains("r", relation.Ints(1))
	if got := s.TotalReads(); got != 0 {
		t.Errorf("Contains charged reads: %d", got)
	}
}

func TestLoadFacts(t *testing.T) {
	s := New()
	prog := parser.MustParseProgram(`dept(toy). dept(shoe). emp(jones, shoe, 50).`)
	if err := s.LoadFacts(prog); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("dept", relation.Strs("toy")) {
		t.Error("dept(toy) missing")
	}
	if !s.Contains("emp", relation.TupleOf(ast.Str("jones"), ast.Str("shoe"), ast.Int(50))) {
		t.Error("emp fact missing")
	}
	bad := parser.MustParseProgram("p(X) :- q(X).")
	if err := s.LoadFacts(bad); err == nil {
		t.Error("non-fact accepted by LoadFacts")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	if _, err := s.Insert("r", relation.Ints(1)); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if _, err := c.Insert("r", relation.Ints(2)); err != nil {
		t.Fatal(err)
	}
	if s.Contains("r", relation.Ints(2)) {
		t.Error("clone mutation leaked into original")
	}
}

func TestUpdateApply(t *testing.T) {
	s := New()
	ins := Ins("dept", relation.Strs("toy"))
	if err := ins.Apply(s); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("dept", relation.Strs("toy")) {
		t.Error("insert update not applied")
	}
	del := Del("dept", relation.Strs("toy"))
	if err := del.Apply(s); err != nil {
		t.Fatal(err)
	}
	if s.Contains("dept", relation.Strs("toy")) {
		t.Error("delete update not applied")
	}
	if got := ins.String(); got != "+dept(toy)" {
		t.Errorf("String = %q", got)
	}
	if got := del.String(); got != "-dept(toy)" {
		t.Errorf("String = %q", got)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	s := New()
	if err := s.LoadFacts(parser.MustParseProgram(`
		dept(toy). dept("New York").
		emp(jones, shoe, 50). emp(ann, toy, 4.5).`)); err != nil {
		t.Fatal(err)
	}
	dump := s.Dump()
	s2 := New()
	if err := s2.LoadFacts(parser.MustParseProgram(dump)); err != nil {
		t.Fatalf("reload of dump failed: %v\n%s", err, dump)
	}
	for _, name := range s.Names() {
		a, b := s.Relation(name), s2.Relation(name)
		if b == nil || !a.Equal(b) {
			t.Errorf("relation %s did not round-trip", name)
		}
	}
	// Symbols needing quotes must be quoted in the dump.
	if !strings.Contains(dump, `"New York"`) {
		t.Errorf("dump lacks quoted symbol:\n%s", dump)
	}
}

// TestOtherArityReadsEmpty: every read the join engine makes names the
// atom's arity, and a relation stored with another arity — or absent —
// reads empty and panics nowhere, even on columns the stored relation
// lacks.
func TestOtherArityReadsEmpty(t *testing.T) {
	s := New()
	if _, err := s.Insert("r", relation.Ints(1)); err != nil {
		t.Fatal(err)
	}
	three := handles(relation.Ints(1, 2, 3))
	for _, rel := range []string{"r", "absent"} {
		if got := s.TuplesAppend(nil, rel, 3); len(got) != 0 {
			t.Errorf("%s: scan at arity 3 read %v", rel, got)
		}
		if got := s.LookupColsAppend(nil, rel, 3, []int{2}, three[2:]); len(got) != 0 {
			t.Errorf("%s: probe at arity 3 read %v", rel, got)
		}
		if got := s.RangeAppend(nil, rel, 3, []relation.Range{{Col: 2, HasLo: true, Lo: ast.Int(0)}}); len(got) != 0 {
			t.Errorf("%s: range at arity 3 read %v", rel, got)
		}
		if s.Probe(rel, three) {
			t.Errorf("%s holds a 3-tuple", rel)
		}
		if got := s.FirstCols(rel, 3, []int{2}, []ast.Value{ast.Int(3)}, nil); got != nil {
			t.Errorf("%s: existence probe at arity 3 found %v", rel, got)
		}
	}
	if got := s.TuplesAppend(nil, "r", 1); len(got) != 1 {
		t.Errorf("scan at the stored arity read %v", got)
	}
}

func TestProbeAndMustEnsureAndString(t *testing.T) {
	s := New()
	s.MustEnsure("r", 1)
	if _, err := s.Insert("r", relation.Ints(1)); err != nil {
		t.Fatal(err)
	}
	if !s.Probe("r", handles(relation.Ints(1))) || s.Probe("r", handles(relation.Ints(2))) {
		t.Error("Probe membership wrong")
	}
	if got := s.Reads("r"); got != 2 {
		t.Errorf("Probe charged %d reads, want 2", got)
	}
	if s.Probe("absent", handles(relation.Ints(1))) {
		t.Error("Probe on absent relation")
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustEnsure arity conflict did not panic")
		}
	}()
	s.MustEnsure("r", 3)
}

// TestReplace: ReplaceRange over the range that bounds nothing swaps the
// whole relation's contents without charging reads, creates an absent
// relation, empties one, works at arity 0, builds no index, and refuses an
// arity conflict with the stored relation or within the tuples.
func TestReplace(t *testing.T) {
	s := New()
	if _, err := s.Insert("r", relation.Ints(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("r", relation.Ints(3, 4)); err != nil {
		t.Fatal(err)
	}
	s.Tuples("r") // charge some reads
	whole := relation.Range{}
	data, builds := s.DataVersion("r"), relation.IndexBuilds()
	if err := s.ReplaceRange("r", 2, whole, relation.Rows([]relation.Tuple{relation.Ints(5, 6), relation.Ints(3, 4)})); err != nil {
		t.Fatal(err)
	}
	if s.DataVersion("r") <= data {
		t.Error("a swap that changed the contents did not advance the data version")
	}
	if s.Contains("r", relation.Ints(1, 2)) || !s.Contains("r", relation.Ints(5, 6)) || !s.Contains("r", relation.Ints(3, 4)) {
		t.Errorf("the whole swap did not leave exactly the new contents: %s", s)
	}
	if n := relation.IndexBuilds() - builds; n != 0 {
		t.Errorf("a whole swap built %d indexes", n)
	}
	if got := s.Reads("r"); got != 2 {
		t.Errorf("the swap charged reads: got %d, want 2 (the earlier scan)", got)
	}
	if err := s.ReplaceRange("fresh", 1, whole, relation.Rows([]relation.Tuple{relation.Ints(7)})); err != nil {
		t.Fatal(err)
	}
	if !s.Contains("fresh", relation.Ints(7)) {
		t.Error("the whole swap did not create the relation")
	}
	if err := s.ReplaceRange("r", 2, whole, nil); err != nil {
		t.Fatal(err)
	}
	if n := s.Relation("r").Len(); n != 0 {
		t.Errorf("a swap to nothing left %d tuples", n)
	}
	// A nullary relation holds the empty tuple or nothing.
	for _, ts := range [][]relation.Tuple{{{}}, nil} {
		if err := s.ReplaceRange("flag", 0, whole, relation.Rows(ts)); err != nil {
			t.Fatal(err)
		}
		if n := s.Relation("flag").Len(); n != len(ts) {
			t.Errorf("nullary swap to %v holds %d tuples", ts, n)
		}
	}
	if err := s.ReplaceRange("r", 3, whole, nil); err == nil {
		t.Error("a swap at a conflicting arity was accepted")
	}
	if err := s.ReplaceRange("r", 2, whole, relation.Rows([]relation.Tuple{relation.Ints(1)})); err == nil {
		t.Error("a swap with a mis-sized tuple was accepted")
	}
}

// lookupCols is the Tuple form of a hash probe the tests compare:
// LookupColsAppend's rows, materialized.
func lookupCols(s *Store, name string, arity int, cols []int, vals []ast.Value) []relation.Tuple {
	var out []relation.Tuple
	for _, hs := range s.LookupColsAppend(nil, name, arity, cols, relation.AppendHandles(nil, vals)) {
		out = append(out, relation.Materialize(hs))
	}
	return out
}

func TestLookupColsCharging(t *testing.T) {
	s := New()
	for i := int64(0); i < 10; i++ {
		if _, err := s.Insert("r", relation.Ints(i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	// A multi-column probe charges only the tuples it returns — that is
	// the whole point of indexed evaluation under read accounting.
	ts := lookupCols(s, "r", 2, []int{0, 1}, []ast.Value{ast.Int(1), ast.Int(3)})
	if len(ts) != 1 {
		t.Fatalf("LookupCols = %d tuples, want 1", len(ts))
	}
	if got := s.Reads("r"); got != 1 {
		t.Errorf("Reads = %d, want 1", got)
	}
	// Probing an absent relation returns nil and charges nothing.
	if ts := lookupCols(s, "absent", 1, []int{0}, []ast.Value{ast.Int(1)}); ts != nil {
		t.Errorf("LookupCols on absent relation = %v", ts)
	}
	if got := s.Reads("absent"); got != 0 {
		t.Errorf("absent relation charged %d reads", got)
	}
}

// TestConcurrentProbesEnsureReads: probes, the store's read path, take no
// store-wide lock, while Ensure creates relations under them and Reads
// polls the counters; meaningful under -race. Every probe is charged to
// its name, absent or not — a Probe charges before it looks the
// relation up — and no counter a poll sees ever falls.
func TestConcurrentProbesEnsureReads(t *testing.T) {
	const readers, probes = 4, 1200
	names := []string{"a", "b", "c", "d", "e", "f"}
	s := New()
	if _, err := s.Insert("a", relation.Ints(1)); err != nil {
		t.Fatal(err)
	}
	hs := []relation.Handle{relation.Intern(ast.Int(1))}
	var wg sync.WaitGroup
	for w := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range probes {
				name := names[(w+i)%len(names)]
				s.Probe(name, hs)
				s.FirstCols(name, 1, []int{0}, []ast.Value{ast.Int(1)}, nil)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, name := range names[1:] {
			if _, err := s.Ensure(name, 1); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Insert(name, relation.Ints(1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		seen := map[string]int64{}
		for range probes {
			for _, name := range names {
				got := s.Reads(name)
				if got < seen[name] {
					t.Errorf("Reads(%s) fell from %d to %d", name, seen[name], got)
					return
				}
				seen[name] = got
			}
		}
	}()
	wg.Wait()
	<-done
	// Each reader probes each name probes/len(names) times, twice a turn.
	want := int64(readers * probes / len(names) * 2)
	for _, name := range names {
		if got := s.Reads(name); got != want {
			t.Errorf("Reads(%s) = %d, want %d", name, got, want)
		}
	}
	if got := s.Names(); !slices.Equal(got, names) {
		t.Errorf("Names() = %v, want %v", got, names)
	}
}

// A probe stream of hits and misses charges exactly the tuples the hits
// return: a miss moves neither counter.
func TestMissedProbesChargeNothing(t *testing.T) {
	s := New()
	for i := int64(0); i < 10; i++ {
		if _, err := s.Insert("r", relation.Ints(i%3, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Insert("q", relation.Ints(7)); err != nil {
		t.Fatal(err)
	}
	cols := []int{0}
	var want int64
	for i := int64(0); i < 40; i++ {
		key := []relation.Handle{relation.Intern(ast.Int(i % 5))} // 3 and 4 miss
		before, total := s.Reads("r"), s.TotalReads()
		n := int64(len(s.LookupColsAppend(nil, "r", 2, cols, key)))
		n += int64(len(lookupCols(s, "r", 2, []int{0}, []ast.Value{ast.Int(i % 5)})))
		n += int64(len(s.RangeAppend(nil, "r", 2, []relation.Range{{Col: 1, HasLo: true, Lo: ast.Int(i % 12)}})))
		want += n
		if n == 0 && (s.Reads("r") != before || s.TotalReads() != total) {
			t.Fatalf("probe %d read nothing but moved the counters: r %d→%d, total %d→%d", i, before, s.Reads("r"), total, s.TotalReads())
		}
		if got := s.Reads("r"); got != want {
			t.Fatalf("after probe %d: Reads(r) = %d, want %d", i, got, want)
		}
	}
	if got := s.TotalReads(); got != want || s.Reads("q") != 0 {
		t.Fatalf("TotalReads = %d, Reads(q) = %d; want %d, 0", got, s.Reads("q"), want)
	}
}

func TestReplaceCarriesIndexSignatures(t *testing.T) {
	s := New()
	if _, err := s.Insert("r", relation.Ints(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Build an index through a probe, then swap the whole relation: the
	// swap works in place, so the signature stays warm (the netdist
	// coordinator refreshes its mirror this way before every global
	// evaluation).
	lookupCols(s, "r", 2, []int{0, 1}, []ast.Value{ast.Int(1), ast.Int(2)})
	if err := s.ReplaceRange("r", 2, relation.Range{}, relation.Rows([]relation.Tuple{relation.Ints(3, 4)})); err != nil {
		t.Fatal(err)
	}
	builds := relation.IndexBuilds()
	if ts := lookupCols(s, "r", 2, []int{0, 1}, []ast.Value{ast.Int(3), ast.Int(4)}); len(ts) != 1 {
		t.Fatalf("probe after Replace = %d tuples, want 1", len(ts))
	}
	if n := relation.IndexBuilds() - builds; n != 0 {
		t.Fatalf("the whole swap dropped the index signature: the probe after it built %d indexes", n)
	}
}

// TestReplaceKey: a key group is ReplaceRange's point case, found through
// the hash index — it builds no ordered index.
func TestReplaceKey(t *testing.T) {
	s := New()
	for _, ts := range [][]int64{{1, 10}, {1, 11}, {2, 20}} {
		if _, err := s.Insert("d", relation.Ints(ts...)); err != nil {
			t.Fatal(err)
		}
	}
	// Swap key group 1: {1,10},{1,11} -> {1,12}; group 2 untouched.
	builds := relation.IndexBuilds()
	if err := s.ReplaceRange("d", 2, relation.PointRange(0, ast.Int(1)), relation.Rows([]relation.Tuple{relation.Ints(1, 12)})); err != nil {
		t.Fatal(err)
	}
	got := s.Relation("d").Tuples()
	want := map[string]bool{relation.Ints(1, 12).Key(): true, relation.Ints(2, 20).Key(): true}
	if len(got) != len(want) {
		t.Fatalf("after ReplaceRange: %v", got)
	}
	for _, tu := range got {
		if !want[tu.Key()] {
			t.Fatalf("unexpected tuple %s after ReplaceRange", tu)
		}
	}

	// Emptying a group deletes all its tuples.
	if err := s.ReplaceRange("d", 2, relation.PointRange(0, ast.Int(2)), nil); err != nil {
		t.Fatal(err)
	}
	if s.Contains("d", relation.Ints(2, 20)) {
		t.Fatal("ReplaceRange with empty group left the old tuples")
	}
	if n := relation.IndexBuilds() - builds; n != 1 {
		t.Fatalf("two key groups swapped with %d index builds, want the one hash index", n)
	}

	// Creating an absent relation works; arity and key mismatches fail.
	if err := s.ReplaceRange("fresh", 1, relation.PointRange(0, ast.Int(7)), relation.Rows([]relation.Tuple{relation.Ints(7)})); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceRange("d", 2, relation.PointRange(0, ast.Int(1)), relation.Rows([]relation.Tuple{relation.Ints(9, 9)})); err == nil {
		t.Fatal("tuple not carrying the key value must be rejected")
	}
	if err := s.ReplaceRange("d", 2, relation.PointRange(5, ast.Int(1)), nil); err == nil {
		t.Fatal("out-of-range key column must be rejected")
	}
}

// TestReplaceRange swaps the tuples of a range — closed, open, one-sided —
// and leaves every tuple outside it alone.
func TestReplaceRange(t *testing.T) {
	s := New()
	for i := int64(0); i < 10; i++ {
		if _, err := s.Insert("r", relation.Ints(i, i*i)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		rg   relation.Range
		ts   []relation.Tuple
		want string
	}{
		// [3, 5] -> 3 kept, 4 dropped, 5 changed.
		{relation.Range{Col: 0, Lo: ast.Int(3), Hi: ast.Int(5), HasLo: true, HasHi: true},
			[]relation.Tuple{relation.Ints(3, 9), relation.Ints(5, 0)},
			"r(0,0) r(1,1) r(2,4) r(3,9) r(5,0) r(6,36) r(7,49) r(8,64) r(9,81)"},
		// (6, ∞) on column 0 -> emptied.
		{relation.Range{Col: 0, Lo: ast.Int(6), HasLo: true, LoOpen: true}, nil,
			"r(0,0) r(1,1) r(2,4) r(3,9) r(5,0) r(6,36)"},
		// (-∞, 4) on column 1 -> only 0 and 5 hold values below 4 there.
		{relation.Range{Col: 1, Hi: ast.Int(4), HasHi: true, HiOpen: true},
			[]relation.Tuple{relation.Ints(0, 3)},
			"r(0,3) r(2,4) r(3,9) r(6,36)"},
		// Lo above Hi holds nothing: only an empty range replaces it.
		{relation.Range{Col: 0, Lo: ast.Int(5), Hi: ast.Int(1), HasLo: true, HasHi: true}, nil,
			"r(0,3) r(2,4) r(3,9) r(6,36)"},
	}
	for i, c := range cases {
		if err := s.ReplaceRange("r", 2, c.rg, relation.Rows(c.ts)); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		var got []string
		for _, tu := range s.Tuples("r") {
			got = append(got, "r"+tu.String())
		}
		slices.Sort(got)
		if strings.Join(got, " ") != c.want {
			t.Fatalf("case %d: got %v, want %s", i, got, c.want)
		}
	}
	v := s.DataVersion("r")
	if err := s.ReplaceRange("r", 2, relation.Range{Col: 0, Lo: ast.Int(2), HasLo: true}, relation.Rows([]relation.Tuple{relation.Ints(2, 4), relation.Ints(3, 9), relation.Ints(6, 36)})); err != nil {
		t.Fatal(err)
	}
	if s.DataVersion("r") != v {
		t.Fatal("swapping a range for its own contents moved the data version")
	}
	for _, bad := range []relation.Tuple{relation.Ints(1, 1), relation.Ints(2)} {
		if err := s.ReplaceRange("r", 2, relation.Range{Col: 0, Lo: ast.Int(2), HasLo: true}, relation.Rows([]relation.Tuple{bad})); err == nil {
			t.Fatalf("tuple %s outside the range or of the wrong arity was taken", bad)
		}
	}
}

// TestRefreshAllocs: a refresh that ships what the mirror already holds —
// a point, a range or the whole relation, of 1 tuple or of 50 — diffs the
// shipped rows by handle in pooled room, so it allocates nothing, and it
// moves no data version.
func TestRefreshAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	refresh := func(name string, n int64, rg func(n int64) relation.Range) float64 {
		s := New()
		var ts []relation.Tuple
		for i := int64(0); i < n; i++ {
			ts = append(ts, relation.Ints(7, i))
		}
		r := rg(n)
		if err := s.ReplaceRange(name, 2, r, relation.Rows(ts)); err != nil {
			t.Fatal(err)
		}
		v, rows := s.DataVersion(name), relation.Rows(ts)
		allocs := testing.AllocsPerRun(100, func() {
			if err := s.ReplaceRange(name, 2, r, rows); err != nil {
				t.Fatal(err)
			}
		})
		if got := s.DataVersion(name); got != v {
			t.Errorf("%s: refreshing %d mirrored tuples moved the data version from %d to %d", name, n, v, got)
		}
		return allocs
	}
	for _, c := range []struct {
		name string
		rg   func(n int64) relation.Range
	}{
		{"point", func(int64) relation.Range { return relation.PointRange(0, ast.Int(7)) }},
		{"range", func(n int64) relation.Range {
			return relation.Range{Col: 1, Lo: ast.Int(0), Hi: ast.Int(n), HasLo: true, HasHi: true}
		}},
		{"whole", func(int64) relation.Range { return relation.Range{} }},
	} {
		if one, fifty := refresh(c.name, 1, c.rg), refresh(c.name, 50, c.rg); one != 0 || fifty != 0 {
			t.Errorf("%s: a refresh of 1 mirrored tuple allocates %v objects, of 50 %v; want 0", c.name, one, fifty)
		}
	}
}

// DataVersion is what a kept evaluation checks itself against: it must
// move on every change of contents, including a whole or ranged swap, and
// stay put when nothing changed.
func TestDataVersion(t *testing.T) {
	s := New()
	if v := s.DataVersion("p"); v != 0 {
		t.Fatalf("absent relation at version %d", v)
	}
	for i := int64(0); i < 5; i++ {
		if _, err := s.Insert("p", relation.Ints(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	v := s.DataVersion("p")
	if v == 0 {
		t.Fatal("inserts left the version at 0")
	}
	s.Contains("p", relation.Ints(1, 1))
	s.Tuples("p")
	if got := s.DataVersion("p"); got != v {
		t.Fatalf("reads moved the version %d -> %d", v, got)
	}
	// Swapping the whole relation for an identical image changes nothing;
	// changing one tuple of it moves the version.
	image := s.Tuples("p")
	if err := s.ReplaceRange("p", 2, relation.Range{}, relation.Rows(image)); err != nil {
		t.Fatal(err)
	}
	if got := s.DataVersion("p"); got != v {
		t.Fatalf("a whole swap for an identical image moved the version %d -> %d", v, got)
	}
	image[0] = relation.Ints(9, 9)
	if err := s.ReplaceRange("p", 2, relation.Range{}, relation.Rows(image)); err != nil {
		t.Fatal(err)
	}
	v2 := s.DataVersion("p")
	if v2 <= v {
		t.Fatalf("a whole swap changing one tuple took the version from %d to %d", v, v2)
	}
	// Swapping a key group for itself changes nothing.
	if err := s.ReplaceRange("p", 2, relation.PointRange(0, ast.Int(9)), relation.Rows([]relation.Tuple{relation.Ints(9, 9)})); err != nil {
		t.Fatal(err)
	}
	if got := s.DataVersion("p"); got != v2 {
		t.Fatalf("a no-op ReplaceRange moved the version %d -> %d", v2, got)
	}
	if err := s.ReplaceRange("p", 2, relation.PointRange(0, ast.Int(9)), relation.Rows([]relation.Tuple{relation.Ints(9, 8)})); err != nil {
		t.Fatal(err)
	}
	if got := s.DataVersion("p"); got <= v2 {
		t.Fatalf("ReplaceRange changed the group but not the version (%d)", got)
	}
}

func TestFirstCols(t *testing.T) {
	s := New()
	if _, err := s.Insert("emp", relation.Strs("ann", "toy")); err != nil {
		t.Fatal(err)
	}
	toy := []ast.Value{ast.Str("toy")}
	if got := s.FirstCols("emp", 2, []int{1}, toy, nil); !relation.Strs("ann", "toy").EqualHandles(got) {
		t.Errorf("FirstCols = %v, want emp(ann,toy)", got)
	}
	// An existence probe is one read, found or not; another arity and an
	// absent relation hold no witness, and probing them creates nothing.
	if got := s.FirstCols("emp", 2, []int{1}, []ast.Value{ast.Str("shoe")}, nil); got != nil {
		t.Errorf("FirstCols(shoe) = %v", got)
	}
	if got := s.FirstCols("emp", 3, []int{1}, toy, nil); got != nil {
		t.Errorf("FirstCols at arity 3 = %v", got)
	}
	if got := s.FirstCols("dept", 1, []int{0}, toy, nil); got != nil || s.Relation("dept") != nil {
		t.Errorf("FirstCols on an absent relation = %v, relation created: %v", got, s.Relation("dept") != nil)
	}
	if got := s.Reads("emp"); got != 3 {
		t.Errorf("emp reads = %d, want 3", got)
	}
}

// handles interns t: the rows the join engine's reads take and return.
func handles(t relation.Tuple) []relation.Handle { return relation.AppendHandles(nil, t) }

func TestRangeAppend(t *testing.T) {
	s := New()
	for i := int64(0); i < 10; i++ {
		if _, err := s.Insert("r", relation.Ints(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 3 ≤ v < 6: a range lookup charges only the tuples it returns.
	rg := []relation.Range{{Col: 0, Lo: ast.Int(3), Hi: ast.Int(6), HasLo: true, HasHi: true, HiOpen: true}}
	dst := [][]relation.Handle{handles(relation.Ints(99))}
	got := s.RangeAppend(dst, "r", 1, rg)
	if len(got) != 4 || !slices.Equal(got[1], handles(relation.Ints(3))) || !slices.Equal(got[3], handles(relation.Ints(5))) {
		t.Fatalf("RangeAppend = %v, want [99] then 3, 4, 5", got)
	}
	if n := s.Reads("r"); n != 3 {
		t.Errorf("reads = %d, want 3", n)
	}
	// A range compiled against an atom of another arity, or over a relation
	// the store lacks, reads nothing and creates nothing.
	if got := s.RangeAppend(dst, "r", 2, rg); len(got) != 1 {
		t.Errorf("RangeAppend at arity 2 = %v, want dst unchanged", got)
	}
	if got := s.RangeAppend(dst, "absent", 1, rg); len(got) != 1 || s.Relation("absent") != nil {
		t.Errorf("RangeAppend on an absent relation = %v, relation created: %v", got, s.Relation("absent") != nil)
	}
	if n := s.Reads("r") + s.Reads("absent"); n != 3 {
		t.Errorf("reads = %d after the refused lookups, want 3", n)
	}
	// A whole swap keeps the ordered column in place: neither the swap
	// nor the next lookup builds an index.
	builds := relation.IndexBuilds()
	if err := s.ReplaceRange("r", 1, relation.Range{}, relation.Rows([]relation.Tuple{relation.Ints(4), relation.Ints(7)})); err != nil {
		t.Fatal(err)
	}
	if got := s.RangeAppend(nil, "r", 1, rg); len(got) != 1 || !slices.Equal(got[0], handles(relation.Ints(4))) {
		t.Errorf("RangeAppend after the whole swap = %v, want [(4)]", got)
	}
	if n := relation.IndexBuilds() - builds; n != 0 {
		t.Errorf("the whole swap and a range lookup after it built %d indexes", n)
	}
}
