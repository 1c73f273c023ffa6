package parser

import (
	"fmt"

	"repro/internal/ast"
)

// Parser is a recursive-descent parser over the token stream.
type parser struct {
	lx   *lexer
	tok  token
	next token
	err  error
}

func newParser(src string) (*parser, error) {
	p := &parser{lx: newLexer(src)}
	var err error
	if p.tok, err = p.lx.next(); err != nil {
		return nil, err
	}
	if p.next, err = p.lx.next(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	p.tok = p.next
	var err error
	p.next, err = p.lx.next()
	return err
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, fmt.Errorf("parser: line %d, col %d: expected %v, found %v %q",
			p.tok.line, p.tok.col, k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// ParseProgram parses a sequence of period-terminated rules (and facts)
// into a Program. It validates arities and rule safety.
func ParseProgram(src string) (*ast.Program, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	prog := &ast.Program{}
	for p.tok.kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseRule parses a single rule (the input must contain exactly one,
// with or without the trailing period at end of input).
func ParseRule(src string) (*ast.Rule, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	r, err := p.parseRule()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("parser: line %d: trailing input after rule", p.tok.line)
	}
	if err := r.CheckSafe(); err != nil {
		return nil, err
	}
	return r, nil
}

// ParseConstraint parses a single-rule constraint query: the head must be
// the 0-ary panic predicate.
func ParseConstraint(src string) (*ast.Rule, error) {
	r, err := ParseRule(src)
	if err != nil {
		return nil, err
	}
	if r.Head.Pred != ast.PanicPred || r.Head.Arity() != 0 {
		return nil, fmt.Errorf("parser: constraint head must be %s, got %s", ast.PanicPred, r.Head)
	}
	return r, nil
}

// ParseAtom parses a single ground or non-ground atom, e.g. "emp(jones,shoe,50)".
func ParseAtom(src string) (ast.Atom, error) {
	p, err := newParser(src)
	if err != nil {
		return ast.Atom{}, err
	}
	a, err := p.parseAtom()
	if err != nil {
		return ast.Atom{}, err
	}
	if p.tok.kind == tokDot {
		if err := p.advance(); err != nil {
			return ast.Atom{}, err
		}
	}
	if p.tok.kind != tokEOF {
		return ast.Atom{}, fmt.Errorf("parser: trailing input after atom")
	}
	return a, nil
}

// parseRule parses: head [:- body] '.'
// A trailing period may be omitted only at end of input.
func (p *parser) parseRule() (*ast.Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	r := &ast.Rule{Head: head}
	if p.tok.kind == tokImplies {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			r.Body = append(r.Body, lit)
			if p.tok.kind != tokAmp {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	switch p.tok.kind {
	case tokDot:
		if err := p.advance(); err != nil {
			return nil, err
		}
	case tokEOF:
		// allow omission at end of input
	default:
		return nil, fmt.Errorf("parser: line %d, col %d: expected '.' or '&' after subgoal, found %v %q",
			p.tok.line, p.tok.col, p.tok.kind, p.tok.text)
	}
	return r, nil
}

// parseLiteral parses: 'not' atom | atom | term compop term
func (p *parser) parseLiteral() (ast.Literal, error) {
	if p.tok.kind == tokNot {
		if err := p.advance(); err != nil {
			return ast.Literal{}, err
		}
		a, err := p.parseAtom()
		if err != nil {
			return ast.Literal{}, err
		}
		return ast.Neg(a), nil
	}
	// A literal starting with an identifier followed by '(' is an atom;
	// otherwise it must be a comparison (its left side may still be a
	// constant identifier, e.g. toy <> D).
	if p.tok.kind == tokIdent && p.next.kind == tokLParen {
		a, err := p.parseAtom()
		if err != nil {
			return ast.Literal{}, err
		}
		return ast.Pos(a), nil
	}
	if p.tok.kind == tokIdent && !isCompKind(p.next.kind) {
		// 0-ary atom such as panic used as a subgoal.
		a, err := p.parseAtom()
		if err != nil {
			return ast.Literal{}, err
		}
		return ast.Pos(a), nil
	}
	left, err := p.parseTerm()
	if err != nil {
		return ast.Literal{}, err
	}
	var op ast.CompOp
	switch p.tok.kind {
	case tokLt:
		op = ast.Lt
	case tokLe:
		op = ast.Le
	case tokEq:
		op = ast.Eq
	case tokNe:
		op = ast.Ne
	case tokGe:
		op = ast.Ge
	case tokGt:
		op = ast.Gt
	default:
		return ast.Literal{}, fmt.Errorf("parser: line %d, col %d: expected comparison operator, found %v %q",
			p.tok.line, p.tok.col, p.tok.kind, p.tok.text)
	}
	if err := p.advance(); err != nil {
		return ast.Literal{}, err
	}
	right, err := p.parseTerm()
	if err != nil {
		return ast.Literal{}, err
	}
	return ast.Cmp(ast.NewComparison(left, op, right)), nil
}

func isCompKind(k tokenKind) bool {
	switch k {
	case tokLt, tokLe, tokEq, tokNe, tokGe, tokGt:
		return true
	}
	return false
}

// parseAtom parses: pred ['(' term {',' term} ')']
func (p *parser) parseAtom() (ast.Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return ast.Atom{}, err
	}
	a := ast.Atom{Pred: name.text}
	if p.tok.kind != tokLParen {
		return a, nil
	}
	if err := p.advance(); err != nil {
		return ast.Atom{}, err
	}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return ast.Atom{}, err
		}
		a.Args = append(a.Args, t)
		if p.tok.kind == tokAmp && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return ast.Atom{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return ast.Atom{}, err
	}
	return a, nil
}

// parseTerm parses a variable, numeric constant, string constant, or
// symbolic constant.
func (p *parser) parseTerm() (ast.Term, error) {
	t := p.tok
	switch t.kind {
	case tokVar:
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.V(t.text), nil
	case tokIdent:
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.CStr(t.text), nil
	case tokString:
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.CStr(t.text), nil
	case tokNumber:
		r, err := ast.ParseNumber(t.text)
		if err != nil {
			return ast.Term{}, fmt.Errorf("parser: line %d, col %d: %v", t.line, t.col, err)
		}
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.C(ast.Value{Kind: ast.NumberValue, Num: r}), nil
	}
	return ast.Term{}, fmt.Errorf("parser: line %d, col %d: expected term, found %v %q",
		t.line, t.col, t.kind, t.text)
}

// MustParseProgram is ParseProgram that panics on error; for tests,
// examples, and embedded fixtures.
func MustParseProgram(src string) *ast.Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MustParseConstraint is ParseConstraint that panics on error.
func MustParseConstraint(src string) *ast.Rule {
	r, err := ParseConstraint(src)
	if err != nil {
		panic(err)
	}
	return r
}

// MustParseRule is ParseRule that panics on error.
func MustParseRule(src string) *ast.Rule {
	r, err := ParseRule(src)
	if err != nil {
		panic(err)
	}
	return r
}

// MustParseAtom is ParseAtom that panics on error.
func MustParseAtom(src string) ast.Atom {
	a, err := ParseAtom(src)
	if err != nil {
		panic(err)
	}
	return a
}
