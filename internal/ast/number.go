package ast

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
)

// MaxNumberDigits bounds the decimal digits a number read from text —
// a constraint source, a decision-API body, a wire frame — may need.
// Every decoded constant is interned for the life of the process, and
// big.Rat spends time and memory in proportion to the value, not the
// text: "1e999999" is eight bytes.
const MaxNumberDigits = 1000

// ParseNumber parses decimal numeric text — [+-]digits[.digits][e[+-]digits],
// or a fraction a/b of two such — into an exact rational. Before any
// arithmetic it refuses text whose value would need more than
// MaxNumberDigits decimal digits: mantissa digits plus the absolute
// exponent, counted for a and b separately.
func ParseNumber(s string) (*big.Rat, error) {
	num, den, frac := strings.Cut(s, "/")
	if !decimalWithin(num) || frac && !decimalWithin(den) {
		return nil, fmt.Errorf("bad number %q (decimal, at most %d digits)", s, MaxNumberDigits)
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("bad number %q", s)
	}
	return r, nil
}

// ParseKey parses Value.Key's output: "$<text>" for a string, and for a
// number "#" and the canonical -?[0-9]+(/[0-9]+)? that Key writes, within
// MaxNumberDigits.
func ParseKey(s string) (Value, error) {
	if strings.HasPrefix(s, "$") {
		return Str(s[1:]), nil
	}
	if strings.HasPrefix(s, "#") {
		num, den, frac := strings.Cut(strings.TrimPrefix(s[1:], "-"), "/")
		if !allDigits(num) || frac && !allDigits(den) {
			return Value{}, fmt.Errorf("bad numeric value %q", s)
		}
		r, err := ParseNumber(s[1:])
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: NumberValue, Num: r}, nil
	}
	return Value{}, fmt.Errorf("bad value encoding %q", s)
}

// decimalWithin reports whether s is a decimal [+-]digits[.digits]
// [(e|E)[+-]digits] whose mantissa digits plus |exponent| stay within
// MaxNumberDigits. Base prefixes and binary exponents, which big.Rat
// also accepts, are refused.
func decimalWithin(s string) bool {
	mant, exp := s, ""
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		mant, exp = s[:i], trimSign(s[i+1:])
		if exp == "" || !allDigits(exp) {
			return false
		}
	}
	whole, frac, _ := strings.Cut(trimSign(mant), ".")
	digits := len(whole) + len(frac)
	if digits == 0 || !allDigits(whole) || !allDigits(frac) {
		return false
	}
	if exp != "" {
		n, err := strconv.Atoi(exp)
		if err != nil || n > MaxNumberDigits {
			return false
		}
		digits += n
	}
	return digits <= MaxNumberDigits
}

// trimSign drops one leading sign.
func trimSign(s string) string {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		return s[1:]
	}
	return s
}

// allDigits reports whether s is made of ASCII digits only.
func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
