// Wire types of the decision API: the JSON shapes POST /v1/check,
// /v1/apply, /v1/batch and GET /v1/stats exchange, and the tuple value
// codec. The SDK's HTTP arm reuses these types verbatim, so both arms
// of the service speak exactly one dialect.
package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
)

// WireUpdate is one update on the wire. Tuple elements are JSON numbers
// (decoded exactly — parse requests with json.Decoder.UseNumber) or
// strings: "#<rational>" and "$<symbol>" use the store's canonical key
// syntax (the netdist wire encoding, exact for non-integer rationals),
// any other string is taken as a symbol directly, so handwritten curl
// bodies stay natural.
type WireUpdate struct {
	Op       string `json:"op"` // "insert" | "delete" (aliases "+" | "-")
	Relation string `json:"relation"`
	Tuple    []any  `json:"tuple"`
}

// ToUpdate decodes the wire form.
func (w WireUpdate) ToUpdate() (store.Update, error) {
	var insert bool
	switch w.Op {
	case "insert", "+":
		insert = true
	case "delete", "-":
	default:
		return store.Update{}, fmt.Errorf(`serve: op must be "insert" or "delete", got %q`, w.Op)
	}
	if w.Relation == "" {
		return store.Update{}, fmt.Errorf("serve: update has no relation")
	}
	t := make(relation.Tuple, len(w.Tuple))
	for i, el := range w.Tuple {
		v, err := DecodeWireValue(el)
		if err != nil {
			return store.Update{}, fmt.Errorf("serve: tuple[%d]: %w", i, err)
		}
		t[i] = v
	}
	return store.Update{Insert: insert, Relation: w.Relation, Tuple: t}, nil
}

// FromUpdate encodes an update for the wire: integer numbers as JSON
// numbers, non-integer rationals as "#p/q", symbols as "$sym" (the
// unambiguous canonical form — a symbol may itself start with "#").
func FromUpdate(u store.Update) WireUpdate {
	op := "delete"
	if u.Insert {
		op = "insert"
	}
	tuple := make([]any, len(u.Tuple))
	for i, v := range u.Tuple {
		tuple[i] = encodeWireValue(v)
	}
	return WireUpdate{Op: op, Relation: u.Relation, Tuple: tuple}
}

func encodeWireValue(v ast.Value) any {
	if v.Kind == ast.NumberValue {
		if v.Num.IsInt() {
			return json.Number(v.Num.Num().String())
		}
		return relation.ValueKey(v)
	}
	return "$" + v.Str
}

// DecodeWireValue maps one decoded JSON tuple element onto a constant.
// Values are funneled through the intern pool, like netdist's decoder,
// so service traffic arrives pre-interned for fingerprinting; a number
// needing more than ast.MaxNumberDigits digits is refused first.
func DecodeWireValue(el any) (ast.Value, error) {
	switch v := el.(type) {
	case json.Number:
		r, err := ast.ParseNumber(v.String())
		if err != nil {
			return ast.Value{}, err
		}
		return relation.Canonical(ast.Value{Kind: ast.NumberValue, Num: r}), nil
	case float64:
		// A decoder without UseNumber hands numbers over as float64; the
		// exact path is json.Number, but accept the lossy one for
		// programmatic callers building []any by hand.
		return relation.Canonical(ast.Float(v)), nil
	case string:
		if strings.HasPrefix(v, "#") || strings.HasPrefix(v, "$") {
			k, err := ast.ParseKey(v)
			if err != nil {
				return ast.Value{}, err
			}
			return relation.Canonical(k), nil
		}
		return relation.Canonical(ast.Str(v)), nil
	}
	return ast.Value{}, fmt.Errorf("bad tuple element %T (want number or string)", el)
}

// CheckRequest is the body of POST /v1/check and /v1/apply.
type CheckRequest struct {
	Update WireUpdate `json:"update"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Updates []WireUpdate `json:"updates"`
	// Atomic makes the batch all-or-nothing: the first rejected update
	// rolls back everything the batch already applied.
	Atomic bool `json:"atomic"`
}

// PhaseDecision is one constraint's dispatch in a Decision.
type PhaseDecision struct {
	Constraint string `json:"constraint"`
	Phase      string `json:"phase"`
	Verdict    string `json:"verdict"`
}

// Decision is the wire verdict for one update.
type Decision struct {
	// Verdict is "ok" when every constraint holds, "violation" otherwise.
	Verdict string `json:"verdict"`
	// Applied reports whether the update is now in the store: always
	// false for /v1/check (a decided-but-not-applied probe answers
	// Verdict "ok"), and false for rejected or rolled-back updates.
	Applied    bool            `json:"applied"`
	Violations []string        `json:"violations,omitempty"`
	Decisions  []PhaseDecision `json:"decisions,omitempty"`
}

// OK reports whether the update passed every constraint.
func (d Decision) OK() bool { return d.Verdict == VerdictOK }

// Decision verdict values.
const (
	VerdictOK        = "ok"
	VerdictViolation = "violation"
)

// DecisionFrom renders a checker report as a wire decision. mutated
// distinguishes /v1/apply (true: an admitted update stays in the store)
// from /v1/check and rolled-back batch members (false).
func DecisionFrom(rep core.Report, mutated bool) Decision {
	d := Decision{Verdict: VerdictOK, Applied: rep.Applied && mutated}
	if !rep.Applied {
		d.Verdict = VerdictViolation
		d.Violations = rep.Violations()
	}
	for _, dec := range rep.Decisions {
		d.Decisions = append(d.Decisions, PhaseDecision{
			Constraint: dec.Constraint,
			Phase:      dec.Phase.String(),
			Verdict:    dec.Verdict.String(),
		})
	}
	return d
}

// BatchResult is the body of a /v1/batch response.
type BatchResult struct {
	Atomic bool `json:"atomic"`
	// Applied counts the updates left applied in the store.
	Applied int `json:"applied"`
	// FailedAt is the index of the update that rolled an atomic batch
	// back; -1 otherwise.
	FailedAt int        `json:"failed_at"`
	Results  []Decision `json:"results"`
}

// BatchResultFrom renders a worker batch outcome for the wire.
func BatchResultFrom(out BatchOutcome) BatchResult {
	res := BatchResult{Atomic: out.Atomic, Applied: out.Applied, FailedAt: out.FailedAt}
	rolledBack := out.Atomic && out.FailedAt >= 0
	for _, rep := range out.Reports {
		res.Results = append(res.Results, DecisionFrom(rep, !rolledBack))
	}
	return res
}

// StatsPayload is the body of GET /v1/stats: the wrapped checker's
// pipeline statistics plus the server-level accounting.
type StatsPayload struct {
	Updates   int            `json:"updates"`
	Rejected  int            `json:"rejected"`
	Decisions int            `json:"decisions"`
	ByPhase   map[string]int `json:"by_phase"`
	Server    Stats          `json:"server"`
}

// StatsPayloadFrom merges the two snapshots.
func StatsPayloadFrom(cs core.Stats, ss Stats) StatsPayload {
	p := StatsPayload{
		Updates:   cs.Updates,
		Rejected:  cs.Rejected,
		Decisions: cs.Decisions,
		ByPhase:   map[string]int{},
		Server:    ss,
	}
	for phase, n := range cs.ByPhase {
		p.ByPhase[phase.String()] = n
	}
	return p
}

// ErrorBody is the JSON error envelope non-2xx responses carry.
type ErrorBody struct {
	Error string `json:"error"`
}
