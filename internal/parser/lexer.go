// Package parser parses the paper's constraint-query syntax into the ast
// representation. The grammar follows the examples of the paper:
//
//	panic :- emp(E,D,S) & not dept(D) & S < 100.
//	boss(E,M) :- emp(E,D,S) & manager(D,M).
//	dept1(toy).
//
// Rules are terminated by '.'; subgoals are separated by '&' (',' is also
// accepted); 'not' negates an atom; comparison operators are
// < <= = <> >= >. Identifiers beginning with a capital letter are
// variables, others are symbolic constants or predicate names; numeric
// literals (integers and decimals, optionally signed, with an optional
// exponent and denominator: 1.5e-05, 1/3) are numeric constants of at
// most ast.MaxNumberDigits digits; double-quoted strings, in which '\'
// takes the next byte literally, are symbolic constants. '%' and '//'
// start comments running to end of line.
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF     tokenKind = iota
	tokIdent             // lower-case identifier: constant or predicate
	tokVar               // upper-case identifier: variable
	tokNumber            // numeric literal
	tokString            // quoted string
	tokImplies           // :-
	tokAmp               // & (or ,)
	tokLParen            // (
	tokRParen            // )
	tokDot               // .
	tokNot               // not
	tokLt                // <
	tokLe                // <=
	tokEq                // =
	tokNe                // <>
	tokGe                // >=
	tokGt                // >
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokImplies:
		return "':-'"
	case tokAmp:
		return "'&'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokDot:
		return "'.'"
	case tokNot:
		return "'not'"
	case tokLt:
		return "'<'"
	case tokLe:
		return "'<='"
	case tokEq:
		return "'='"
	case tokNe:
		return "'<>'"
	case tokGe:
		return "'>='"
	case tokGt:
		return "'>'"
	}
	return fmt.Sprintf("token(%d)", int(k))
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) errf(line, col int, format string, args ...any) error {
	return fmt.Errorf("parser: line %d, col %d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) peekByte() byte { return lx.at(0) }

// at returns the byte i places ahead, 0 past the end.
func (lx *lexer) at(i int) byte {
	if lx.pos+i >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+i]
}

func (lx *lexer) skipDigits() {
	for isDigit(lx.peekByte()) {
		lx.advance()
	}
}

func (lx *lexer) advance() byte {
	b := lx.src[lx.pos]
	lx.pos++
	if b == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return b
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		b := lx.peekByte()
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			lx.advance()
		case b == '%':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case b == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
		b >= 0x80 // allow UTF-8 continuation into ident; classified by first rune
}

func isIdentPart(b byte) bool {
	return isIdentStart(b) || b >= '0' && b <= '9' || b == '\''
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

// next scans one token.
func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	b := lx.peekByte()
	switch {
	case b == '(':
		lx.advance()
		return token{tokLParen, "(", line, col}, nil
	case b == ')':
		lx.advance()
		return token{tokRParen, ")", line, col}, nil
	case b == '&' || b == ',':
		lx.advance()
		return token{tokAmp, string(b), line, col}, nil
	case b == ':':
		lx.advance()
		if lx.peekByte() != '-' {
			return token{}, lx.errf(line, col, "expected ':-'")
		}
		lx.advance()
		return token{tokImplies, ":-", line, col}, nil
	case b == '<':
		lx.advance()
		switch lx.peekByte() {
		case '=':
			lx.advance()
			return token{tokLe, "<=", line, col}, nil
		case '>':
			lx.advance()
			return token{tokNe, "<>", line, col}, nil
		}
		return token{tokLt, "<", line, col}, nil
	case b == '>':
		lx.advance()
		if lx.peekByte() == '=' {
			lx.advance()
			return token{tokGe, ">=", line, col}, nil
		}
		return token{tokGt, ">", line, col}, nil
	case b == '=':
		lx.advance()
		return token{tokEq, "=", line, col}, nil
	case b == '!':
		lx.advance()
		if lx.peekByte() != '=' {
			return token{}, lx.errf(line, col, "expected '!='")
		}
		lx.advance()
		return token{tokNe, "<>", line, col}, nil
	case b == '"':
		lx.advance()
		var sb strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errf(line, col, "unterminated string")
			}
			c := lx.advance()
			if c == '"' {
				break
			}
			if c == '\\' && lx.pos < len(lx.src) {
				c = lx.advance()
			}
			sb.WriteByte(c)
		}
		return token{tokString, sb.String(), line, col}, nil
	case isDigit(b) || b == '-' && isDigit(lx.at(1)):
		start := lx.pos
		if b == '-' {
			lx.advance()
		}
		for isDigit(lx.peekByte()) || lx.peekByte() == '.' && isDigit(lx.at(1)) {
			lx.advance()
		}
		// The exponent and the denominator ast.Value.String writes for a
		// number that is no short decimal: 1.52587890625e-05, 1/3.
		if e, s := lx.peekByte(), lx.at(1); (e == 'e' || e == 'E') && (isDigit(s) || (s == '+' || s == '-') && isDigit(lx.at(2))) {
			lx.advance()
			lx.advance()
			lx.skipDigits()
		}
		if lx.peekByte() == '/' && isDigit(lx.at(1)) {
			lx.advance()
			lx.skipDigits()
		}
		return token{tokNumber, lx.src[start:lx.pos], line, col}, nil
	case b == '.':
		lx.advance()
		return token{tokDot, ".", line, col}, nil
	case isIdentStart(b):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peekByte()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if text == "not" {
			return token{tokNot, text, line, col}, nil
		}
		r := []rune(text)[0]
		if unicode.IsUpper(r) || r == '_' {
			return token{tokVar, text, line, col}, nil
		}
		return token{tokIdent, text, line, col}, nil
	}
	return token{}, lx.errf(line, col, "unexpected character %q", string(b))
}
