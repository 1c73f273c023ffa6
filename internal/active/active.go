// Package active implements the paper's second application (Section 2,
// "Applications"): active databases, where rules of the form "if C holds,
// then perform action A" are viewed as constraints panic :- C whose panic
// derivation triggers A. Unlike ordinary constraint maintenance, the
// conditions cannot be assumed to hold (i.e. be unviolated) before an
// action fires — actions are what cause updates in the first place — so
// the engine uses the partial-information machinery differently: the
// Section 4 rewriting serves as a *triggering filter* that discards
// updates provably irrelevant to a rule's condition, and full evaluation
// runs only for the rules that survive.
package active

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/store"
	"repro/internal/subsume"
)

// Action is the consequence of a fired rule: updates to apply, computed
// from the bindings that made the condition true. For 0-ary conditions
// the bindings slice is empty.
type Action func(db *store.Store) ([]store.Update, error)

// Rule is a production rule: when Condition (a constraint program with
// goal panic) holds, Action fires.
type Rule struct {
	Name      string
	Condition *ast.Program
	Action    Action
}

// Engine manages production rules over a store.
type Engine struct {
	db    *store.Store
	rules []*Rule
	// MaxRounds bounds cascaded firing (active rules may trigger each
	// other; the paper notes that unlike constraint maintenance no
	// quiescence assumption is available).
	MaxRounds int
	stats     Stats
}

// Stats counts triggering-filter effectiveness.
type Stats struct {
	UpdatesSeen     int
	RuleEvaluations int // conditions evaluated in full
	FilteredOut     int // (rule, update) pairs discarded by the filter
	Firings         int
	Rounds          int
}

// NewEngine creates an engine over db.
func NewEngine(db *store.Store) *Engine {
	return &Engine{db: db, MaxRounds: 64}
}

// Stats returns the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// AddRule registers a production rule; the condition must be a valid
// constraint program.
func (e *Engine) AddRule(name, conditionSrc string, action Action) error {
	prog, err := parser.ParseProgram(conditionSrc)
	if err != nil {
		return err
	}
	if len(prog.RulesFor(ast.PanicPred)) == 0 {
		return fmt.Errorf("active: rule %s condition has no %s rule", name, ast.PanicPred)
	}
	if err := prog.Validate(); err != nil {
		return err
	}
	e.rules = append(e.rules, &Rule{Name: name, Condition: prog, Action: action})
	return nil
}

// relevant reports whether the update could possibly change the rule's
// condition from false to true. It is the active-database use of the
// Section 4 machinery: rewrite the condition for the update and check
// that the rewritten condition is contained in the original AND vice
// versa — equivalence means the update cannot affect the condition at
// all ("query independent of update", Elkan [1990]). Because conditions
// cannot be assumed unviolated beforehand, one-sided subsumption is not
// enough here; only full independence filters.
func relevant(r *Rule, u store.Update) bool {
	if !r.Condition.Mentions(u.Relation) {
		return false
	}
	cPrime, err := rewrite.Rewrite(r.Condition, u)
	if err != nil {
		return true // cannot decide: stay conservative
	}
	fwd, err1 := subsume.Subsumes(cPrime, []*ast.Program{r.Condition})
	bwd, err2 := subsume.Subsumes(r.Condition, []*ast.Program{cPrime})
	if err1 != nil || err2 != nil {
		return true
	}
	independent := fwd.Verdict == subsume.Yes && bwd.Verdict == subsume.Yes
	return !independent
}

// Apply applies the update, then runs rule processing to quiescence (or
// MaxRounds): in each round, every rule whose condition might have been
// affected by the pending updates is evaluated, and the actions of the
// rules whose conditions hold fire, producing further updates. It
// returns the names of the rules fired, in firing order.
func (e *Engine) Apply(u store.Update) ([]string, error) {
	e.stats.UpdatesSeen++
	changed, err := e.applyChanged(u)
	if err != nil {
		return nil, err
	}
	var pending []store.Update
	if changed {
		pending = append(pending, u)
	}
	var fired []string
	for round := 0; round < e.MaxRounds && len(pending) > 0; round++ {
		e.stats.Rounds++
		// Which rules survive the triggering filter for any pending update?
		candidates := map[*Rule]bool{}
		for _, r := range e.rules {
			for _, pu := range pending {
				if relevant(r, pu) {
					candidates[r] = true
					break
				}
				e.stats.FilteredOut++
			}
		}
		pending = nil
		for _, r := range e.rules {
			if !candidates[r] {
				continue
			}
			e.stats.RuleEvaluations++
			holds, err := eval.PanicHolds(r.Condition, e.db)
			if err != nil {
				return fired, err
			}
			if !holds {
				continue
			}
			e.stats.Firings++
			fired = append(fired, r.Name)
			if r.Action == nil {
				continue
			}
			updates, err := r.Action(e.db)
			if err != nil {
				return fired, fmt.Errorf("active: rule %s action: %w", r.Name, err)
			}
			for _, au := range updates {
				// Only updates that actually change the store propagate:
				// a no-op action must not re-trigger the cascade.
				ch, err := e.applyChanged(au)
				if err != nil {
					return fired, err
				}
				if ch {
					pending = append(pending, au)
				}
			}
		}
	}
	if len(pending) > 0 {
		return fired, fmt.Errorf("active: rule cascade did not quiesce within %d rounds", e.MaxRounds)
	}
	return fired, nil
}

// applyChanged applies u and reports whether the store changed.
func (e *Engine) applyChanged(u store.Update) (bool, error) {
	if u.Insert {
		return e.db.Insert(u.Relation, u.Tuple)
	}
	return e.db.Delete(u.Relation, u.Tuple), nil
}

// InsertAction returns an Action inserting fixed tuples.
func InsertAction(updates ...store.Update) Action {
	return func(*store.Store) ([]store.Update, error) { return updates, nil }
}
