package icq

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ast"
	"repro/internal/relation"
)

// genInterval draws a random small-integer interval, possibly open or
// half-infinite.
type genInterval Interval

func (genInterval) Generate(rng *rand.Rand, _ int) reflect.Value {
	mk := func() Endpoint {
		if rng.Intn(8) == 0 {
			return Unbounded()
		}
		return Endpoint{Value: ast.Int(int64(rng.Intn(12))), Open: rng.Intn(2) == 0}
	}
	return reflect.ValueOf(genInterval{Lo: mk(), Hi: mk()})
}

func TestQuickCoversMonotoneInSet(t *testing.T) {
	// Adding intervals to the covering set never loses coverage.
	f := func(a, b, c genInterval, tgt genInterval) bool {
		set := []Interval{Interval(a), Interval(b)}
		target := Interval(tgt)
		if Covers(set, target) {
			return Covers(append(set, Interval(c)), target)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoversSelf(t *testing.T) {
	// Every interval covers itself.
	f := func(a genInterval) bool {
		return Covers([]Interval{Interval(a)}, Interval(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoversIntersectionInside(t *testing.T) {
	// a ∩ b is covered by {a} (and by {b}).
	f := func(a, b genInterval) bool {
		x := Interval(a).Intersect(Interval(b))
		return Covers([]Interval{Interval(a)}, x) && Covers([]Interval{Interval(b)}, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionPreservesCoverage(t *testing.T) {
	// The normalized union covers exactly what the raw set covers, for
	// sampled targets.
	f := func(a, b, c genInterval, tgt genInterval) bool {
		set := []Interval{Interval(a), Interval(b), Interval(c)}
		u := Union(set)
		target := Interval(tgt)
		return Covers(set, target) == Covers(u, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickContainsConsistentWithEmpty(t *testing.T) {
	// An interval is empty iff it contains no grid point (half-integer
	// grid is dense enough for integer endpoints within range).
	f := func(a genInterval) bool {
		iv := Interval(a)
		any := false
		for z := int64(-4); z <= 28; z++ {
			if iv.Contains(ast.Rat(z, 2)) {
				any = true
				break
			}
		}
		if iv.Lo.Inf || iv.Hi.Inf {
			// Half-infinite intervals always contain far-out points.
			return !iv.Empty()
		}
		return any == !iv.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubtractPointNeverContainsPoint(t *testing.T) {
	f := func(a genInterval, p uint8) bool {
		v := ast.Int(int64(p % 12))
		for _, piece := range Interval(a).SubtractPoint(v) {
			if piece.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// sweepCovers is the coverage decision as it was before Cover: copy the
// live intervals, stable-sort them by low end and sweep a frontier across
// them. Kept as the reference the normal form and its binary search are
// held to.
func sweepCovers(set []Interval, target Interval) bool {
	if target.Empty() {
		return true
	}
	live := make([]Interval, 0, len(set))
	for _, iv := range set {
		if !iv.Empty() {
			live = append(live, iv)
		}
	}
	sort.SliceStable(live, func(i, j int) bool { return loLess(live[i].Lo, live[j].Lo) })
	frontier := startCut(target.Lo)
	for _, iv := range live {
		if frontier.reaches(target.Hi) {
			return true
		}
		if !frontier.connects(iv.Lo) {
			return false
		}
		frontier = frontier.extend(iv.Hi)
	}
	return frontier.reaches(target.Hi)
}

func TestQuickCoverMatchesSweep(t *testing.T) {
	// A set's Cover answers every target the way the sweep over the raw
	// set does, and is in normal form: non-empty components, ascending,
	// none continuing its predecessor.
	f := func(a, b, c, d, e genInterval, tgt genInterval) bool {
		set := []Interval{Interval(a), Interval(b), Interval(c), Interval(d), Interval(e)}
		cover := Union(set)
		for i, iv := range cover {
			if iv.Empty() || i > 0 && adjoins(cover[i-1].Hi, iv.Lo) {
				return false
			}
		}
		return cover.Covers(Interval(tgt)) == sweepCovers(set, Interval(tgt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCertifyAgainstCoverMatchesSweep(t *testing.T) {
	// CertifyInsert through a Cover built once — closed, open and mixed
	// bounds, and a <> that splits every forbidden interval — equals the
	// per-target sweep over the existing tuples' intervals, also after the
	// local relation gains and loses a tuple between two calls.
	for _, src := range []string{
		"panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.",
		"panic :- l(X,Y) & r(Z) & X < Z & Z <= Y.",
		"panic :- l(X,Y) & r(Z) & X < Z & Z < Y.",
		"panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y & Z <> 6.",
		"panic :- l(X,Y) & r(Z) & X <= Z & Z <> Y.",
	} {
		a, err := Analyze(mustCQC(t, src, "l"))
		if err != nil {
			t.Fatal(err)
		}
		reference := func(ins relation.Tuple, L []relation.Tuple) bool {
			var existing []Interval
			for _, s := range L {
				ivs, err := a.IntervalsFor(s)
				if err != nil {
					t.Fatal(err)
				}
				existing = append(existing, ivs...)
			}
			targets, err := a.IntervalsFor(ins)
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range targets {
				if !sweepCovers(existing, target) {
					return false
				}
			}
			return true
		}
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 300; trial++ {
			var L []relation.Tuple
			for i := rng.Intn(6); i > 0; i-- {
				lo := int64(rng.Intn(12))
				L = append(L, relation.Ints(lo, lo+int64(rng.Intn(6))))
			}
			lo := int64(rng.Intn(12))
			ins := relation.Ints(lo, lo+int64(rng.Intn(6)))
			check := func(L []relation.Tuple) {
				t.Helper()
				cover, err := a.CoverOf(L)
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.CertifyAgainst(ins, cover)
				if err != nil {
					t.Fatal(err)
				}
				if want := reference(ins, L); got != want {
					t.Fatalf("%s\ninsert %v into %v: cover %v says %v, the sweep %v", src, ins, L, cover, got, want)
				}
			}
			check(L)
			check(append(L[:len(L):len(L)], relation.Ints(lo-1, lo+2))) // an insert moves the cover
			if len(L) > 0 {
				check(L[1:]) // and so does a delete
			}
		}
	}
}
