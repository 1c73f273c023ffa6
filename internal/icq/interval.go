// Package icq implements Section 6 of the paper: independently
// constrained queries and their complete local tests. For the canonical
// single-remote-variable case it provides
//
//   - interval analysis: the forbidden interval(s) a local tuple imposes
//     on the remote variable, with open, closed and infinite endpoints
//     (the generalizations called out in the proof of Theorem 6.1);
//   - a direct sort-and-sweep coverage decision (the engineered
//     equivalent of the paper's construction);
//   - a generator for the recursive datalog program of Fig 6.1,
//     generalized to open/closed/infinite endpoints, evaluated by
//     internal/eval (Theorem 6.1's constructive route).
package icq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Endpoint is one end of an interval over the dense constant order.
// Inf means the end is at (-∞ for a low end, +∞ for a high end);
// otherwise Value carries the finite endpoint and Open whether the
// endpoint itself is excluded.
type Endpoint struct {
	Inf   bool
	Value ast.Value
	Open  bool
}

// Closed returns a finite closed endpoint.
func Closed(v ast.Value) Endpoint { return Endpoint{Value: v} }

// Open returns a finite open endpoint.
func Open(v ast.Value) Endpoint { return Endpoint{Value: v, Open: true} }

// Unbounded returns an infinite endpoint.
func Unbounded() Endpoint { return Endpoint{Inf: true} }

// Interval is a (possibly empty, possibly half-infinite) interval.
type Interval struct {
	Lo, Hi Endpoint
}

// IntervalCC is the closed interval [lo, hi].
func IntervalCC(lo, hi ast.Value) Interval { return Interval{Lo: Closed(lo), Hi: Closed(hi)} }

// Empty reports whether the interval contains no point of the dense
// order.
func (iv Interval) Empty() bool {
	if iv.Lo.Inf || iv.Hi.Inf {
		return false
	}
	c := iv.Lo.Value.Compare(iv.Hi.Value)
	if c > 0 {
		return true
	}
	if c == 0 {
		return iv.Lo.Open || iv.Hi.Open
	}
	return false
}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v ast.Value) bool {
	if !iv.Lo.Inf {
		c := iv.Lo.Value.Compare(v)
		if c > 0 || c == 0 && iv.Lo.Open {
			return false
		}
	}
	if !iv.Hi.Inf {
		c := v.Compare(iv.Hi.Value)
		if c > 0 || c == 0 && iv.Hi.Open {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Lo: maxLo(iv.Lo, other.Lo), Hi: minHi(iv.Hi, other.Hi)}
}

// maxLo picks the more restrictive (larger) of two low endpoints.
func maxLo(a, b Endpoint) Endpoint {
	switch {
	case a.Inf:
		return b
	case b.Inf:
		return a
	}
	c := a.Value.Compare(b.Value)
	switch {
	case c > 0:
		return a
	case c < 0:
		return b
	default:
		if a.Open || b.Open {
			return Endpoint{Value: a.Value, Open: true}
		}
		return a
	}
}

// minHi picks the more restrictive (smaller) of two high endpoints.
func minHi(a, b Endpoint) Endpoint {
	switch {
	case a.Inf:
		return b
	case b.Inf:
		return a
	}
	c := a.Value.Compare(b.Value)
	switch {
	case c < 0:
		return a
	case c > 0:
		return b
	default:
		if a.Open || b.Open {
			return Endpoint{Value: a.Value, Open: true}
		}
		return a
	}
}

// SubtractPoint removes one point from the interval, yielding up to two
// pieces (used to eliminate <> comparisons, per the Theorem 6.1 proof).
func (iv Interval) SubtractPoint(v ast.Value) []Interval {
	if iv.Empty() || !iv.Contains(v) {
		if iv.Empty() {
			return nil
		}
		return []Interval{iv}
	}
	var out []Interval
	left := Interval{Lo: iv.Lo, Hi: Open(v)}
	right := Interval{Lo: Open(v), Hi: iv.Hi}
	if !left.Empty() {
		out = append(out, left)
	}
	if !right.Empty() {
		out = append(out, right)
	}
	return out
}

// String renders the interval in mathematical notation.
func (iv Interval) String() string {
	var sb strings.Builder
	if iv.Lo.Inf {
		sb.WriteString("(-inf")
	} else if iv.Lo.Open {
		sb.WriteString("(" + iv.Lo.Value.String())
	} else {
		sb.WriteString("[" + iv.Lo.Value.String())
	}
	sb.WriteString(",")
	if iv.Hi.Inf {
		sb.WriteString("+inf)")
	} else if iv.Hi.Open {
		sb.WriteString(iv.Hi.Value.String() + ")")
	} else {
		sb.WriteString(iv.Hi.Value.String() + "]")
	}
	return sb.String()
}

// cut is a position in the dense order used by the coverage sweep: all
// points strictly below value, plus the value itself when inclusive, are
// covered. negInf marks "nothing covered yet"; posInf "everything".
type cut struct {
	negInf    bool
	posInf    bool
	value     ast.Value
	inclusive bool
}

// reaches reports whether coverage up to c suffices to cover everything
// up to (and per openness, including) the target high endpoint.
func (c cut) reaches(hi Endpoint) bool {
	if c.posInf {
		return true
	}
	if c.negInf {
		return false
	}
	if hi.Inf {
		return false
	}
	cmp := c.value.Compare(hi.Value)
	if cmp > 0 {
		return true
	}
	if cmp < 0 {
		return false
	}
	return c.inclusive || hi.Open
}

// connects reports whether an interval starting at lo continues coverage
// from c without a gap (its low end does not leave uncovered points).
func (c cut) connects(lo Endpoint) bool {
	if lo.Inf {
		return true
	}
	if c.posInf {
		return true
	}
	if c.negInf {
		return false
	}
	cmp := lo.Value.Compare(c.value)
	if cmp < 0 {
		return true
	}
	if cmp > 0 {
		return false
	}
	// Equal values: covered so far up to value (inclusive?); the next
	// interval starts at value (open?). A gap appears only when the
	// frontier excludes the point and the interval's low end excludes it
	// too.
	return c.inclusive || !lo.Open
}

// extend advances the frontier to the interval's high end if further.
func (c cut) extend(hi Endpoint) cut {
	if hi.Inf {
		return cut{posInf: true}
	}
	if c.posInf {
		return c
	}
	n := cut{value: hi.Value, inclusive: !hi.Open}
	if c.negInf {
		return n
	}
	cmp := c.value.Compare(hi.Value)
	switch {
	case cmp > 0:
		return c
	case cmp < 0:
		return n
	default:
		return cut{value: c.value, inclusive: c.inclusive || n.inclusive}
	}
}

// startCut is the frontier just before the target's low end: everything
// strictly below is irrelevant.
func startCut(lo Endpoint) cut {
	if lo.Inf {
		return cut{negInf: true}
	}
	// Covered "up to but excluding lo" when lo is closed (the point lo
	// still needs covering); covered "up to and including lo" when lo is
	// open (the point itself is not needed).
	return cut{value: lo.Value, inclusive: lo.Open}
}

// Covers reports whether the union of the given intervals includes every
// point of target. An empty target is covered vacuously. It normalizes
// set first; callers asking about one set more than once build its Cover
// (Union) and ask that.
func Covers(set []Interval, target Interval) bool {
	return target.Empty() || Union(set).Covers(target)
}

// Cover is a set of intervals in normal form: non-empty, pairwise
// disjoint with a gap between any two, in ascending order — what Union
// returns.
type Cover []Interval

// Covers reports whether the cover includes every point of target, by
// binary search: the components have gaps between them and target is
// connected, so it is covered iff the last component that starts at or
// before it also ends at or after it.
func (c Cover) Covers(target Interval) bool {
	if target.Empty() {
		return true
	}
	frontier := startCut(target.Lo)
	// Sorted by low end, the components continuing coverage from the
	// frontier without a gap are a prefix.
	n := sort.Search(len(c), func(i int) bool { return !frontier.connects(c[i].Lo) })
	return n > 0 && frontier.extend(c[n-1].Hi).reaches(target.Hi)
}

// loLess orders low endpoints: -∞ first, then by value, open after
// closed (an open start covers less).
func loLess(a, b Endpoint) bool {
	if a.Inf || b.Inf {
		return a.Inf && !b.Inf
	}
	c := a.Value.Compare(b.Value)
	if c != 0 {
		return c < 0
	}
	return !a.Open && b.Open
}

// Union normalizes a set of intervals into disjoint maximal intervals in
// ascending order: the set's Cover.
func Union(set []Interval) Cover {
	out := make(Cover, 0, len(set))
	for _, iv := range set {
		if !iv.Empty() {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return loLess(out[i].Lo, out[j].Lo) })
	// Merge in place: n components so far, each later interval either
	// continues the last one or opens the next.
	n := 0
	for _, iv := range out {
		if n > 0 && adjoins(out[n-1].Hi, iv.Lo) {
			out[n-1].Hi = maxHi(out[n-1].Hi, iv.Hi)
			continue
		}
		out[n] = iv
		n++
	}
	return out[:n]
}

// adjoins reports whether an interval starting at lo continues one ending
// at hi without a gap between them.
func adjoins(hi, lo Endpoint) bool { return cut{negInf: true}.extend(hi).connects(lo) }

// maxHi picks the more generous (larger) of two high endpoints.
func maxHi(a, b Endpoint) Endpoint {
	if a.Inf || b.Inf {
		return Endpoint{Inf: true}
	}
	c := a.Value.Compare(b.Value)
	switch {
	case c > 0:
		return a
	case c < 0:
		return b
	default:
		if !a.Open || !b.Open {
			return Endpoint{Value: a.Value}
		}
		return a
	}
}

var _ = fmt.Stringer(Interval{})
