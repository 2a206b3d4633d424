package cq

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"

	"repro/internal/relation"
)

// The keys below are injective: every string is length-prefixed, every
// list count-prefixed and every constant tagged with its kind, so each
// encoding is self-delimiting and no two distinct queries share a key
// however their names and constants are spelled.

// CanonicalKey identifies a query up to the order of its body atoms:
// two queries share a key exactly when they have the same head and the
// same multiset of body atoms.
func CanonicalKey(q Query) string {
	buf := make([]byte, 0, 64*len(q.Body))
	atoms := make([][]byte, len(q.Body))
	for i, a := range q.Body {
		start := len(buf)
		buf = appendKeyAtom(buf, a)
		atoms[i] = buf[start:len(buf):len(buf)]
	}
	sort.Slice(atoms, func(i, j int) bool { return bytes.Compare(atoms[i], atoms[j]) < 0 })
	b := appendKeyHead(make([]byte, 0, len(buf)+32), q)
	b = binary.AppendUvarint(b, uint64(len(atoms)))
	for _, a := range atoms {
		b = append(b, a...)
	}
	return string(b)
}

// AppendKey appends an injective encoding of q — its head, then its
// body atoms in order — to b and returns the extended slice. Unlike
// CanonicalKey it tells apart queries whose bodies differ only in order.
func AppendKey(b []byte, q Query) []byte {
	b = appendKeyHead(b, q)
	b = binary.AppendUvarint(b, uint64(len(q.Body)))
	for _, a := range q.Body {
		b = appendKeyAtom(b, a)
	}
	return b
}

func appendKeyHead(b []byte, q Query) []byte {
	b = appendKeyString(b, q.HeadPred)
	b = binary.AppendUvarint(b, uint64(len(q.HeadVars)))
	for _, v := range q.HeadVars {
		b = appendKeyString(b, v)
	}
	return b
}

func appendKeyAtom(b []byte, a Atom) []byte {
	b = appendKeyString(b, a.Pred)
	b = binary.AppendUvarint(b, uint64(len(a.Args)))
	for _, t := range a.Args {
		if t.IsVar {
			b = appendKeyString(append(b, 'v'), t.Var)
			continue
		}
		v := t.Const
		b = append(b, 'c', byte(v.Kind))
		switch v.Kind {
		case relation.TString:
			b = appendKeyString(b, v.S)
		case relation.TInt:
			b = binary.AppendVarint(b, v.I)
		case relation.TFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
		}
	}
	return b
}

func appendKeyString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
