package cq

import "testing"

// FuzzParseCQ throws arbitrary text at the datalog parser. Parse must
// return a query or an error, never panic, and a query it accepts must
// render (String) to text it accepts again with the same rendering —
// the round trip the experiments' printed rewritings and the examples'
// query literals lean on. The seeds, including every input the fuzzer
// has failed on, are in testdata/fuzz/FuzzParseCQ.
func FuzzParseCQ(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(s)
		if err != nil {
			return
		}
		text := q.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not parse: %v", s, text, err)
		}
		if text2 := q2.String(); text2 != text {
			t.Fatalf("Parse(%q) rendered %q, which re-renders as %q", s, text, text2)
		}
	})
}
