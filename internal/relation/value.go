// Package relation is REVERE's relational substrate: typed values,
// schemas, in-memory relations with code indexes, and databases. The
// paper stores MANGROVE annotations "in a relational database using a
// simple graph representation" and Piazza reformulates queries down to
// "stored relations"; this package is that storage layer.
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// Type enumerates the value types supported by the substrate.
type Type int

const (
	// TString is a UTF-8 string.
	TString Type = iota
	// TInt is a 64-bit integer.
	TInt
	// TFloat is a 64-bit float.
	TFloat
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	}
	return "invalid"
}

// Value is a typed scalar. The zero value is the empty string.
type Value struct {
	Kind Type
	S    string
	I    int64
	F    float64
}

// SV makes a string value.
func SV(s string) Value { return Value{Kind: TString, S: s} }

// IV makes an int value.
func IV(i int64) Value { return Value{Kind: TInt, I: i} }

// FV makes a float value.
func FV(f float64) Value { return Value{Kind: TFloat, F: f} }

// Equal reports deep equality, requiring identical kinds.
func (v Value) Equal(w Value) bool { return v == w }

// Less orders values: by kind first, then by natural order within kind.
func (v Value) Less(w Value) bool {
	if v.Kind != w.Kind {
		return v.Kind < w.Kind
	}
	switch v.Kind {
	case TString:
		return v.S < w.S
	case TInt:
		return v.I < w.I
	case TFloat:
		return v.F < w.F
	}
	return false
}

// Key returns a string usable as a hash-index key; distinct values map to
// distinct keys within a kind.
func (v Value) Key() string {
	switch v.Kind {
	case TString:
		return "s:" + v.S
	case TInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case TFloat:
		return "f:" + strconv.FormatFloat(v.F, 'g', -1, 64)
	}
	return "?"
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns a cheap FNV-1a hash of the value, suitable for hash sets
// and join tables. Unlike Key it allocates nothing. Values that are ==
// hash alike: -0 hashes as +0, since FV(0) == FV(-0).
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset64)
	h ^= uint64(v.Kind)
	h *= fnvPrime64
	switch v.Kind {
	case TString:
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= fnvPrime64
		}
	case TInt:
		h ^= uint64(v.I)
		h *= fnvPrime64
	case TFloat:
		f := v.F
		if f == 0 {
			f = 0 // -0 == +0
		}
		h ^= math.Float64bits(f)
		h *= fnvPrime64
	}
	return h
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Kind {
	case TString:
		return v.S
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	}
	return "?"
}

// Quoted renders the value in query-literal syntax: strings single-quoted,
// numbers bare.
func (v Value) Quoted() string {
	if v.Kind == TString {
		return "'" + v.S + "'"
	}
	return v.String()
}

// ParseValue parses a literal: quoted → string, integral → int,
// otherwise float; unquoted non-numeric text is a string.
func ParseValue(s string) Value {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return SV(s[1 : len(s)-1])
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return IV(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return FV(f)
	}
	return SV(s)
}

// Tuple is an ordered list of values conforming to a schema.
type Tuple []Value

// Equal reports element-wise equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Key returns a composite hash key for the whole tuple.
func (t Tuple) Key() string {
	out := ""
	for i, v := range t {
		if i > 0 {
			out += "\x1f"
		}
		out += v.Key()
	}
	return out
}

// Hash returns a cheap composite FNV-1a hash of the whole tuple.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, v := range t {
		h ^= v.Hash()
		h *= fnvPrime64
	}
	return h
}

// Less orders tuples lexicographically.
func (t Tuple) Less(u Tuple) bool {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			return t[i].Less(u[i])
		}
	}
	return len(t) < len(u)
}

// Clone returns a deep copy.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String implements fmt.Stringer.
func (t Tuple) String() string {
	out := "("
	for i, v := range t {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%v", v)
	}
	return out + ")"
}
