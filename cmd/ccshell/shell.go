// Command ccshell is an interactive constraint-checking shell: load
// facts, register constraints, push updates through the staged pipeline,
// and run ad-hoc queries.
//
//	$ go run ./cmd/ccshell
//	>> :load examples.dl
//	>> :constraint ri panic :- emp(E,D) & not dept(D).
//	>> +dept(toy)
//	applied        ri: polarity
//	>> +emp(ann,ghost)
//	REJECTED [ri]
//	>> ? emp(E,D) & dept(D)
//	(ann,toy)
//
// Commands:
//
//	:load <file>              load facts from a file
//	:constraint <name> <src>  register a constraint (rules separated by ';')
//	:constraints              list constraints
//	:redundant                Section 3: constraints subsumed by the rest
//	:check                    fully evaluate every constraint
//	:stats                    phase statistics
//	:explain                  replay the last update's decision trace
//	:trace                    render the last update's span tree
//	:dump                     print the database as facts
//	:quit                     exit
//	+rel(t…) / -rel(t…)       apply an update through the pipeline
//	? <conjunction>           evaluate an ad-hoc query, print bindings
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

func main() {
	sh := newShell(os.Stdout)
	in := bufio.NewScanner(os.Stdin)
	fmt.Print(">> ")
	for in.Scan() {
		if sh.exec(in.Text()) {
			return
		}
		fmt.Print(">> ")
	}
}

// shell holds interactive state; exec processes one line and reports
// whether the session should end. Every update is traced into a small
// ring buffer so :explain can replay the latest decision after the
// fact, and into a span store so :trace can render the span tree with
// per-phase timing.
type shell struct {
	out    io.Writer
	chk    *core.Checker
	trace  *obs.BufferTracer
	spans  *obs.SpanTracer
	bridge *obs.SpanBridge
}

func newShell(out io.Writer) *shell {
	trace := obs.NewBufferTracer(8)
	spans := obs.NewSpanTracer("ccshell", obs.NewTraceStore(64), 1)
	bridge := obs.NewSpanBridge(spans)
	return &shell{
		out:    out,
		chk:    core.New(store.New(), core.Options{Tracer: obs.MultiTracer(trace, bridge)}),
		trace:  trace,
		spans:  spans,
		bridge: bridge,
	}
}

func (sh *shell) printf(format string, args ...any) {
	fmt.Fprintf(sh.out, format, args...)
}

func (sh *shell) exec(line string) (quit bool) {
	line = strings.TrimSpace(line)
	switch {
	case line == "" || strings.HasPrefix(line, "%"):
		return false
	case line == ":quit" || line == ":q":
		return true
	case strings.HasPrefix(line, ":"):
		sh.command(line)
	case line[0] == '+' || line[0] == '-':
		sh.update(line)
	case line[0] == '?':
		sh.query(strings.TrimSpace(line[1:]))
	default:
		sh.printf("unrecognized input; see :help\n")
	}
	return false
}

func (sh *shell) command(line string) {
	fields := strings.SplitN(line, " ", 3)
	switch fields[0] {
	case ":help":
		sh.printf(":load <file> | :constraint <name> <rules> | :constraints | :redundant | :check | :stats | :explain | :trace | :dump | :quit | +atom | -atom | ? <conj>\n")
	case ":load":
		if len(fields) < 2 {
			sh.printf("usage: :load <file>\n")
			return
		}
		src, err := os.ReadFile(strings.TrimSpace(strings.Join(fields[1:], " ")))
		if err != nil {
			sh.printf("error: %v\n", err)
			return
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			sh.printf("error: %v\n", err)
			return
		}
		if err := sh.chk.DB().LoadFacts(prog); err != nil {
			sh.printf("error: %v\n", err)
			return
		}
		sh.printf("loaded %d facts\n", len(prog.Rules))
	case ":constraint":
		if len(fields) < 3 {
			sh.printf("usage: :constraint <name> <rules separated by ';'>\n")
			return
		}
		name := fields[1]
		src := strings.ReplaceAll(fields[2], ";", "\n")
		if err := sh.chk.AddConstraintSource(name, src); err != nil {
			sh.printf("error: %v\n", err)
			return
		}
		sh.printf("constraint %s registered\n", name)
	case ":constraints":
		for _, n := range sh.chk.Constraints() {
			sh.printf("%s\n", n)
		}
	case ":redundant":
		red, err := sh.chk.RedundantConstraints()
		if err != nil {
			sh.printf("error: %v\n", err)
			return
		}
		if len(red) == 0 {
			sh.printf("none\n")
			return
		}
		sh.printf("%s\n", strings.Join(red, " "))
	case ":check":
		if bad := sh.chk.CheckAll(); len(bad) == 0 {
			sh.printf("all constraints hold\n")
		} else {
			sh.printf("VIOLATED: %s\n", strings.Join(bad, " "))
		}
	case ":stats":
		st := sh.chk.Stats()
		sh.printf("updates=%d rejected=%d\n", st.Updates, st.Rejected)
		var phases []core.Phase
		for p := range st.ByPhase {
			phases = append(phases, p)
		}
		sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
		for _, p := range phases {
			sh.printf("  %-12s %d\n", p, st.ByPhase[p])
		}
	case ":explain":
		events := sh.trace.Last()
		if len(events) == 0 {
			sh.printf("no update to explain yet\n")
			return
		}
		obs.WriteText(sh.out, events)
		// Why a global decision above was cheap (cache=hit: delta rounds
		// on the kept fixpoint) or dear (miss: rebuilt first), in totals.
		st := sh.chk.Stats()
		sh.printf("kept fixpoints: hits=%d rebuilds=%d drops=%d\n", st.FixpointHits, st.FixpointRebuilds, st.FixpointDrops)
	case ":trace":
		traces := sh.spans.Store().Traces()
		if len(traces) == 0 {
			sh.printf("no update to trace yet\n")
			return
		}
		obs.WriteSpanTree(sh.out, traces[0])
	case ":dump":
		sh.printf("%s", sh.chk.DB().Dump())
	default:
		sh.printf("unknown command %s; see :help\n", fields[0])
	}
}

func (sh *shell) update(line string) {
	atom, err := parser.ParseAtom(strings.TrimSpace(line[1:]))
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	t, err := relation.TermsToTuple(atom.Args)
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	u := store.Update{Insert: line[0] == '+', Relation: atom.Pred, Tuple: t}
	sp := sh.spans.StartRoot("shell.apply", obs.SpanContext{})
	sp.SetAttr("update", fmt.Sprint(u))
	sh.bridge.SetActive(sp)
	rep, err := sh.chk.Apply(u)
	sh.bridge.SetActive(nil)
	if err != nil {
		sp.SetError(err.Error())
	}
	sp.End()
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	if !rep.Applied {
		sh.printf("REJECTED %v\n", rep.Violations())
		return
	}
	var parts []string
	for _, d := range rep.Decisions {
		parts = append(parts, fmt.Sprintf("%s: %s", d.Constraint, d.Phase))
	}
	sh.printf("applied")
	if len(parts) > 0 {
		sh.printf("        %s", strings.Join(parts, ", "))
	}
	sh.printf("\n")
}

// query evaluates an ad-hoc conjunction: the distinct variables of the
// body become the answer columns.
func (sh *shell) query(body string) {
	rule, err := parser.ParseRule("panic :- " + body)
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	vars := rule.Vars()
	head := ast.Atom{Pred: "query$"}
	for _, v := range vars {
		head.Args = append(head.Args, ast.V(v))
	}
	prog := ast.NewProgram(&ast.Rule{Head: head, Body: rule.Body})
	if err := prog.Validate(); err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	res, err := eval.Eval(prog, sh.chk.DB())
	if err != nil {
		sh.printf("error: %v\n", err)
		return
	}
	rows := res.Tuples("query$")
	if len(rows) == 0 {
		sh.printf("no\n")
		return
	}
	if len(vars) == 0 {
		sh.printf("yes\n")
		return
	}
	sh.printf("%s\n", strings.Join(vars, ","))
	for _, t := range rows {
		sh.printf("%s\n", t)
	}
}
