package cq

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/relation"
)

// Parse reads a conjunctive query in datalog syntax:
//
//	q(X, Y) :- course(X, I, S), person(I, Y, 'cs')
//
// Identifiers starting with an uppercase letter (or underscore) are
// variables; single-quoted strings and numbers are constants. Names and
// unquoted constants may not contain ( ) , or ', and quoted ones may
// not contain '.
func Parse(s string) (Query, error) {
	head, body, ok := strings.Cut(s, ":-")
	if !ok {
		return Query{}, fmt.Errorf("cq: missing ':-' in %q", s)
	}
	headAtom, err := parseAtom(strings.TrimSpace(head))
	if err != nil {
		return Query{}, fmt.Errorf("cq: head: %w", err)
	}
	headVars := make([]string, len(headAtom.Args))
	for i, t := range headAtom.Args {
		if !t.IsVar {
			return Query{}, fmt.Errorf("cq: head argument %d is a constant", i)
		}
		headVars[i] = t.Var
	}
	atoms, err := splitAtoms(strings.TrimSpace(body))
	if err != nil {
		return Query{}, err
	}
	q := Query{HeadPred: headAtom.Pred, HeadVars: headVars, Body: atoms}
	if !q.IsSafe() {
		return Query{}, fmt.Errorf("cq: unsafe query, head variable missing from body: %s", q)
	}
	return q, nil
}

// MustParse parses or panics; intended for literals in tests and examples.
func MustParse(s string) Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

// splitAtoms splits "a(X), b(Y, 'q, z')" at top-level commas.
func splitAtoms(body string) ([]Atom, error) {
	var atoms []Atom
	depth := 0
	inQuote := false
	start := 0
	flush := func(end int) error {
		frag := strings.TrimSpace(body[start:end])
		if frag == "" {
			return fmt.Errorf("cq: empty atom in body %q", body)
		}
		a, err := parseAtom(frag)
		if err != nil {
			return err
		}
		atoms = append(atoms, a)
		return nil
	}
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\'':
			inQuote = !inQuote
		case '(':
			if !inQuote {
				depth++
			}
		case ')':
			if !inQuote {
				depth--
			}
		case ',':
			if !inQuote && depth == 0 {
				if err := flush(i); err != nil {
					return nil, err
				}
				start = i + 1
			}
		}
	}
	if err := flush(len(body)); err != nil {
		return nil, err
	}
	return atoms, nil
}

func parseAtom(s string) (Atom, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return Atom{}, fmt.Errorf("cq: malformed atom %q", s)
	}
	pred := strings.TrimSpace(s[:open])
	if pred == "" {
		return Atom{}, fmt.Errorf("cq: atom with empty predicate: %q", s)
	}
	if strings.ContainsAny(pred, delimiters) {
		return Atom{}, fmt.Errorf("cq: predicate %q contains one of %s", pred, delimiters)
	}
	argsStr := s[open+1 : len(s)-1]
	var args []Term
	if strings.TrimSpace(argsStr) != "" {
		parts, err := splitArgs(argsStr)
		if err != nil {
			return Atom{}, err
		}
		for _, p := range parts {
			t, err := parseTerm(p)
			if err != nil {
				return Atom{}, err
			}
			args = append(args, t)
		}
	}
	return Atom{Pred: pred, Args: args}, nil
}

func splitArgs(s string) ([]string, error) {
	var parts []string
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				parts = append(parts, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if inQuote {
		return nil, fmt.Errorf("cq: unterminated quote in %q", s)
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("cq: empty argument in %q", s)
		}
	}
	return parts, nil
}

// delimiters are the characters that frame atoms and arguments. String
// writes names and constants without escaping, so Parse refuses a
// delimiter inside a name or a bare word, and a quote inside a quoted
// constant: whatever it accepts reads back as itself.
const delimiters = "(),'"

func parseTerm(s string) (Term, error) {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' && !strings.Contains(s[1:len(s)-1], "'") {
		return CS(s[1 : len(s)-1]), nil
	}
	if strings.ContainsAny(s, delimiters) {
		return Term{}, fmt.Errorf("cq: argument %q contains one of %s", s, delimiters)
	}
	r := rune(s[0])
	if unicode.IsUpper(r) || r == '_' {
		return V(s), nil
	}
	if unicode.IsDigit(r) || r == '-' {
		v := relation.ParseValue(s)
		if v.Kind == relation.TFloat && v.F == 0 {
			v.F = 0 // -0 would render as "-0" and read back as the int 0
		}
		return C(v), nil
	}
	// Lowercase bare word: treat as a string constant, datalog-style.
	return CS(s), nil
}
