package ineq

import (
	"fmt"
	"testing"

	"repro/internal/ast"
)

// implied keeps BenchmarkImplies' result, so the call is not optimized
// away.
var implied bool

// BenchmarkImplies times the implication phase 3's complete local test
// asks of an employee-like workload: a salary below its department's
// lower bound, against one disjunct per stored employee, each naming a
// department and a salary bound.
func BenchmarkImplies(b *testing.B) {
	s, low, n, d := ast.V("S"), ast.V("Low"), ast.V("N"), ast.V("D")
	premise := []ast.Comparison{cmp(s, ast.Lt, low), cmp(n, ast.Eq, d)}
	for _, k := range []int{4, 32, 64} {
		var disjuncts [][]ast.Comparison
		for i := range k {
			dept := ast.C(ast.Str(fmt.Sprintf("dept%d", i%5)))
			if i%2 == 0 {
				disjuncts = append(disjuncts, []ast.Comparison{cmp(s, ast.Lt, ast.CInt(int64(10*i))), cmp(n, ast.Eq, dept)})
			} else {
				disjuncts = append(disjuncts, []ast.Comparison{cmp(s, ast.Gt, ast.CInt(int64(1000+i))), cmp(d, ast.Eq, dept)})
			}
		}
		b.Run(fmt.Sprintf("disjuncts=%d", k), func(b *testing.B) {
			for range b.N {
				implied = Implies(premise, disjuncts)
			}
		})
	}
}
