package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/store"
)

func TestFootprintsFollowConstraintSet(t *testing.T) {
	db := store.New()
	c := New(db, Options{})
	if err := c.AddConstraintSource("fi", `panic :- l(X, Y) & r(Z) & X <= Z & Z <= Y.`); err != nil {
		t.Fatal(err)
	}
	ins := store.Ins("l", relation.Ints(1, 5))
	fps := c.Footprints()
	if f := fps.Update(ins); !reflect.DeepEqual(f.Reads, []sched.Read{{Relation: "r"}}) {
		t.Fatalf("residual-eligible insert reads = %v, want [r]", f.Reads)
	}

	// The claims are the programs', which a change of the constraint set
	// drops: a view taken before it sees the wider read set.
	if err := c.AddConstraintSource("excl", `panic :- l(X, Y) & s(X).`); err != nil {
		t.Fatal(err)
	}
	// s is probed with the new tuple's X: one key group of it.
	want := []sched.Read{{Relation: "r"}, {Relation: "s", Keyed: true, Col: 0, Key: relation.Intern(ast.Int(1))}}
	if f := fps.Update(ins); !reflect.DeepEqual(f.Reads, want) {
		t.Fatalf("reads after AddConstraint = %v, want [r s[0=1]]", f.Reads)
	}
	if !c.RemoveConstraint("fi") {
		t.Fatal("RemoveConstraint(fi) found nothing")
	}
	want = want[1:]
	if f := c.Footprints().Update(ins); !reflect.DeepEqual(f.Reads, want) {
		t.Fatalf("reads after RemoveConstraint = %v, want [s[0=1]]", f.Reads)
	}
}

// TestCertificateClaimsNothing: a local certificate reads the updated
// relation itself, and the update's footprint does not say so — with
// emp local and a certificate compiled, an emp insert claims the dept key
// group it claimed before and nothing of emp. It does not have to: the
// verdict needs a witness to have been there with the rest of the rule's
// relations as they are, which the claims on those keep; the decision
// keeps the witness its plan found (Decide); and a claim on emp's key
// group would park every insert behind the inserts, deletes and batches
// of its department (measured on dist_sharded: 27 % of tasks stalled,
// against 0.05 % without — DESIGN.md, "Local certificates").
func TestCertificateClaimsNothing(t *testing.T) {
	for _, opts := range []Options{{}, {LocalRelations: []string{"emp"}}} {
		c := newChecker(t, "dept(toy). emp(ann,toy).", opts)
		if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
			t.Fatal(err)
		}
		f := c.Footprints().Update(hire("bob", "toy"))
		want := []sched.Read{{Relation: "dept", Keyed: true, Col: 0, Key: relation.Intern(ast.Str("toy"))}}
		if !reflect.DeepEqual(f.Reads, want) {
			t.Errorf("local=%v: reads = %v, want the dept key group only", opts.LocalRelations, f.Reads)
		}
	}
}

// testSharder is a Sharder: the named relations are remote, those with a
// non-negative column are fetched by key group on it.
type testSharder map[string]int

func (s testSharder) Remote(rel string) bool { _, ok := s[rel]; return ok }

func (s testSharder) ShardKey(rel string) (int, bool) {
	col, ok := s[rel]
	return col, ok && col >= 0
}

// TestFootprintCoversReads: a footprint claims what its decision reads.
// Over the oracle test's seeds, constraint pool and update generator —
// with everything local, with a local/remote split (phase 3 and the
// certificates on) and with DisableResidual — every relation but the
// updated one whose read counter moves during Check(u) is claimed by
// Footprints().Update(u). The updated relation is exempt: certificates
// and phase 3 read it, and TestCertificateClaimsNothing says why the
// claims need not.
func TestFootprintCoversReads(t *testing.T) {
	rels := []string{"e", "f", "g", "h"}
	for name, opts := range map[string]Options{
		"local":      {},
		"split":      {LocalRelations: []string{"e", "f"}, Sharder: testSharder{"g": 0, "h": -1}},
		"noresidual": {DisableResidual: true},
	} {
		moved := 0
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := store.New()
			for rel, n := range oracleArity {
				db.MustEnsure(rel, n)
			}
			for i := 0; i < 3; i++ {
				if _, err := db.Insert("e", randomTuple(rng, "e")); err != nil {
					t.Fatal(err)
				}
			}
			chk := New(db, opts)
			for tries := 0; len(chk.Constraints()) < 2 && tries < 50; tries++ {
				k := oracleConstraints[rng.Intn(len(oracleConstraints))]
				_ = chk.AddConstraintSource(k.name, k.src) // a duplicate or a violated one is refused
			}
			for step := 0; step < 60; step++ {
				u := randomUpdate(rng)
				fp := chk.Footprints().Update(u)
				before := make([]int64, len(rels))
				for i, rel := range rels {
					before[i] = db.Reads(rel)
				}
				if _, err := chk.Check(u); err != nil {
					t.Fatal(err)
				}
				for i, rel := range rels {
					if rel == u.Relation || db.Reads(rel) == before[i] {
						continue
					}
					moved++
					if !slices.ContainsFunc(fp.Reads, func(r sched.Read) bool { return r.Relation == rel }) {
						t.Errorf("%s seed %d step %d: checking %s read %s, footprint claims %v", name, seed, step, u, rel, fp.Reads)
					}
				}
				if rng.Intn(2) == 0 {
					if _, err := chk.Apply(u); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if moved < 100 {
			t.Errorf("%s: only %d reads of another relation: the streams barely read", name, moved)
		}
	}
}

// TestFootprintLookupLeavesDecisionAsIs: a footprint lookup that is the
// first to compile a pattern's program does not run it, so the decision
// after it counts and traces as a direct one — the same Stats, the same
// cache status on every trace event — with the decision memo on and off.
func TestFootprintLookupLeavesDecisionAsIs(t *testing.T) {
	us := []store.Update{
		hire("bob", "toy"), hire("cy", "shoe"), store.Del("emp", relation.Strs("ann", "toy")),
		store.Ins("dept", relation.Strs("hat")), store.Ins("edge", relation.Ints(1, 2)),
		store.Ins("edge", relation.Ints(2, 3)), store.Ins("other", relation.Ints(1)),
	}
	for _, opts := range []Options{{}, {DisableCache: true}, {LocalRelations: []string{"emp"}}} {
		run := func(lookFirst bool) (Stats, []obs.Event) {
			buf := obs.NewBufferTracer(len(us))
			opts.Tracer = buf
			c := newChecker(t, "dept(toy). dept(shoe). emp(ann,toy).", opts)
			if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
				t.Fatal(err)
			}
			if err := c.AddConstraintSource("cycle", "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X)."); err != nil {
				t.Fatal(err)
			}
			for _, u := range us {
				if lookFirst {
					c.Footprints().Update(u)
				}
				if _, err := c.Apply(u); err != nil {
					t.Fatal(err)
				}
			}
			evs := buf.All()
			for i := range evs {
				evs[i].Duration, evs[i].IndexProbes = 0, 0
			}
			return c.Stats(), evs
		}
		direct, directTrace := run(false)
		looked, lookedTrace := run(true)
		if !reflect.DeepEqual(direct, looked) {
			t.Errorf("%+v: stats after footprint lookups %+v, direct %+v", opts, looked, direct)
		}
		if !reflect.DeepEqual(directTrace, lookedTrace) {
			t.Errorf("%+v: trace after footprint lookups\n%+v\ndirect\n%+v", opts, lookedTrace, directTrace)
		}
	}
}
