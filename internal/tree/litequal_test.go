package tree

import (
	"math"
	"testing"
)

// LitEqual must agree with the literal hash (which folds float64 through
// math.Float64bits): bit-identical NaNs are equal, +0 and -0 are not, and
// non-float literals compare with ==.
func TestLitEqual(t *testing.T) {
	cases := []struct {
		name string
		a, b any
		want bool
	}{
		{"nan-nan", math.NaN(), math.NaN(), true},
		{"inf-inf", math.Inf(1), math.Inf(1), true},
		{"inf-neginf", math.Inf(1), math.Inf(-1), false},
		{"zero-negzero", 0.0, math.Copysign(0, -1), false},
		{"negzero-negzero", math.Copysign(0, -1), math.Copysign(0, -1), true},
		{"float-float", 1.5, 1.5, true},
		{"float-other", 1.5, 2.5, false},
		{"float-vs-string", 1.5, "1.5", false},
		{"string-string", "a", "a", true},
		{"string-differs", "a", "b", false},
		{"bool-bool", true, true, true},
		{"int64-int64", int64(7), int64(7), true},
		{"int64-differs", int64(7), int64(8), false},
	}
	for _, tc := range cases {
		if got := LitEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: LitEqual(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// Hash/equality alignment: two single-literal values must hash equal
// exactly when LitEqual says they are equal. A mismatch in either
// direction re-opens the NaN bug class (see internal/proptest's
// regress_nan_test.go).
func TestLitEqualAgreesWithHash(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 1, 1.5}
	hash := func(v float64) Digest {
		w := hashers.Get().(*hasher)
		defer hashers.Put(w)
		w.buf = w.buf[:0]
		w.lit(v)
		var d Digest
		w.sum(&d, SHA256)
		return d
	}
	for _, a := range vals {
		for _, b := range vals {
			if eq, heq := LitEqual(a, b), hash(a) == hash(b); eq != heq {
				t.Errorf("values %v, %v: LitEqual=%v but hashEqual=%v", a, b, eq, heq)
			}
		}
	}
}
