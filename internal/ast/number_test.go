package ast

import (
	"strings"
	"testing"
)

// TestParseNumberBoundsDigits: a number may need at most MaxNumberDigits
// decimal digits, mantissa plus exponent, on each side of a fraction; a
// base prefix or a binary exponent is not decimal.
func TestParseNumberBoundsDigits(t *testing.T) {
	for text, ok := range map[string]bool{
		"1e999": true, "1e1000": false, "1.5e998": true, "1.5e999": false, "-2.5E-3": true,
		strings.Repeat("9", MaxNumberDigits) + "/" + strings.Repeat("9", MaxNumberDigits): true,
		"1/" + strings.Repeat("9", MaxNumberDigits+1):                                     false,
		"1e99999999999999999999": false, "1e": false, "e5": false, ".": false, "0x1p9": false, "1e+-5": false,
	} {
		if _, err := ParseNumber(text); (err == nil) != ok {
			t.Errorf("ParseNumber(%.30q): err=%v, want ok=%v", text, err, ok)
		}
	}
}

// TestParseKeyInvertsKey: ParseKey reads back what Key writes, and only
// the canonical number form.
func TestParseKeyInvertsKey(t *testing.T) {
	for _, v := range []Value{Int(42), Int(-3), Rat(1, 3), Str(""), Str("#42"), Str("$odd")} {
		if got, err := ParseKey(v.Key()); err != nil || !got.Equal(v) || got.Kind != v.Kind {
			t.Errorf("ParseKey(%q) = %v, %v; want %v", v.Key(), got, err, v)
		}
	}
	for _, bad := range []string{"", "42", "#", "#x/y", "#1.5", "#+1", "#1e3"} {
		if v, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) = %v, want an error", bad, v)
		}
	}
}
