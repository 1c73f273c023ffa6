package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/store"
)

// constraint is a named constraint source.
type constraint struct{ name, src string }

func addConstraints(chk *core.Checker, cons []constraint) error {
	for _, c := range cons {
		if err := chk.AddConstraintSource(c.name, c.src); err != nil {
			return fmt.Errorf("constraint %s: %w", c.name, err)
		}
	}
	return nil
}

// parseConstraints parses the sources again: the replays call residual
// and eval directly and need programs of their own.
func parseConstraints(cons []constraint) []*ast.Program {
	out := make([]*ast.Program, len(cons))
	for i, c := range cons {
		out[i] = parser.MustParseProgram(c.src)
	}
	return out
}

// sampleUpdates takes up to n single updates from the head of a stream.
func sampleUpdates(ops []op, n int) []store.Update {
	var out []store.Update
	for i := range ops {
		if len(out) == n {
			break
		}
		if ops[i].kind != opBatch {
			out = append(out, ops[i].u)
		}
	}
	return out
}

// oracle is a sequential checker with every shortcut off — no residual
// dispatch, no decision cache, no plan cache, no indexes — over a store of
// its own that starts with the seeded data.
type oracle struct {
	chk             *core.Checker
	checked, failed int
}

func newOracle(db *store.Store, cons []constraint) (*oracle, error) {
	chk := core.New(db, core.Options{
		Workers:          1,
		DisableResidual:  true,
		DisableCache:     true,
		DisablePlanCache: true,
		DisableIndexes:   true,
	})
	if err := addConstraints(chk, cons); err != nil {
		return nil, err
	}
	return &oracle{chk: chk}, nil
}

// The oracle replays whole segments until it has done oracleOps ops, or
// the whole stream where that is shorter. Without its shortcuts the
// checker evaluates whole constraints: on embed_flat's store one decision
// costs the oracle about 4 ms and the prefix 40 s, more than a run under
// the driver's time cap has, so a budget can stop it earlier.
const oracleOps = 10_000

// run replays the callers' streams segment by segment, one caller after
// the other (the streams are built so that the order does not matter).
// got[c] are the answers the system under test gave caller c's ops in
// its first pass. A budget above 0 stops the replay at the first segment
// end after that long.
func (o *oracle) run(cycs []*cycle, got [][]bool, budget time.Duration) error {
	start := time.Now()
	for s := range cycs[0].segEnds {
		for c, cyc := range cycs {
			lo := 0
			if s > 0 {
				lo = cyc.segEnds[s-1]
			}
			if err := o.replay(cyc.ops[lo:cyc.segEnds[s]], got[c][lo:cyc.segEnds[s]]); err != nil {
				return err
			}
		}
		if o.checked >= oracleOps || budget > 0 && time.Since(start) > budget {
			break
		}
	}
	return nil
}

// replay pushes ops through the oracle in order and counts the answers
// that disagree with the generator's or with got (for a batch: whether
// all of it was applied).
func (o *oracle) replay(ops []op, got []bool) error {
	for i := range ops {
		x := &ops[i]
		var ok bool
		switch x.kind {
		case opCheck:
			rep, err := o.chk.Check(x.u)
			if err != nil {
				return err
			}
			ok = rep.Applied
		case opApply:
			rep, err := o.chk.Apply(x.u)
			if err != nil {
				return err
			}
			ok = rep.Applied
		case opBatch:
			applied := 0
			if x.atomic {
				br, err := o.chk.ApplyBatch(x.us)
				if err != nil {
					return err
				}
				if br.Applied {
					applied = len(x.us)
				}
			} else {
				for _, u := range x.us {
					rep, err := o.chk.Apply(u)
					if err != nil {
						return err
					}
					if rep.Applied {
						applied++
					}
				}
			}
			if applied != x.applied {
				o.failed++
			}
			ok = applied == len(x.us)
		}
		o.checked++
		if ok != x.admit || ok != got[i] {
			o.failed++
		}
	}
	return nil
}

// sortedDump renders a store as sorted fact lines: Dump keeps insertion
// order, which a delete and re-insert changes.
func sortedDump(db *store.Store) string {
	lines := strings.Split(strings.TrimSpace(db.Dump()), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
