package relation

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
)

// columnsSchema is the schema FuzzWireDecode decodes columns against:
// one column of each value kind.
var columnsSchema = NewSchema("cols", Attr("s"), IntAttr("i"), FloatAttr("f"))

// FuzzWireDecode throws arbitrary bytes at every wire decoder — the
// surface a hostile or corrupt peer controls. The invariant is the one
// DecodeSubPlan's doc promises for the whole file: a decoder either
// returns a value or an error, never a panic or an outsized
// allocation. Where a decode succeeds, the value must survive a
// re-encode/re-decode round trip judged by canonical encoding bytes:
// the encoders are deterministic pure functions, so two equal values
// encode identically, and comparing re-encodings (rather than the
// values, or the raw input — decoders accept non-minimal varints)
// stays exact even for float payloads carrying NaN, which the codec
// preserves bit-for-bit but reflect.DeepEqual would call unequal.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHello())
	f.Add(EncodeSchema(NewSchema("course", Attr("title"), IntAttr("size"))))
	f.Add(EncodeTupleBatch([]Tuple{{SV("a"), IV(1), FV(0.5)}, {SV("b"), IV(2), FV(-3)}}))
	f.Add(EncodePeerStats(7, []NamedStats{{Name: "r", Stats: Stats{Rows: 3, Distinct: []float64{2, 3}, Version: 9}}}))
	f.Add(EncodeError(ErrCodeRowBudget, "row budget exceeded"))
	f.Add(EncodeChangeBatch([]ChangeRecord{{Op: ChangeInsert, Rel: "r", Ver: 1, Rows: 1, Tuple: Tuple{SV("x")}}}))
	f.Add(EncodeSubPlan(SubPlan{
		HeadVars: []string{"K", "P"},
		Atoms: []SubPlanAtom{{Pred: "fact", Args: []SubPlanTerm{
			{IsVar: true, Var: "K"}, {Const: SV("p1")}}}},
		Bindings:  []SubPlanBinding{{Var: "K", Values: []Value{SV("k1"), IV(2)}}},
		RowBudget: 1 << 20,
	}))
	f.Add(EncodeSubscribeSince([]RelVersion{{Rel: "course", Ver: 41}, {Rel: "subject", Ver: 7}}))
	var frame bytes.Buffer
	WriteFrame(&frame, FrameTupleBatch, EncodeTupleBatch([]Tuple{{IV(42)}}))
	f.Add(frame.Bytes())
	// A framed Subscribe request as the transport sends it: op byte 6,
	// peer name, empty relation, then the since-list.
	var subReq bytes.Buffer
	payload := append([]byte{6}, appendString(appendString(nil, "mit"), "")...)
	payload = append(payload, EncodeSubscribeSince([]RelVersion{{Rel: "subject", Ver: 3}})...)
	WriteFrame(&subReq, FrameRequest, payload)
	f.Add(subReq.Bytes())
	cols := New(columnsSchema)
	for i := 0; i < 12; i++ {
		cols.MustInsert(SV(fmt.Sprintf("s%d", i%9)), IV(int64(i%2)), FV(float64(i)/4))
	}
	f.Add(AppendColumns(nil, cols))

	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeHello(data)
		DecodeError(data)
		if s, err := DecodeSchema(data); err == nil {
			enc := EncodeSchema(s)
			if s2, err := DecodeSchema(enc); err != nil || !bytes.Equal(enc, EncodeSchema(s2)) {
				t.Fatalf("schema round trip: %+v -> %+v (%v)", s, s2, err)
			}
		}
		if b, err := DecodeTupleBatch(data); err == nil {
			enc := EncodeTupleBatch(b)
			if b2, err := DecodeTupleBatch(enc); err != nil || !bytes.Equal(enc, EncodeTupleBatch(b2)) {
				t.Fatalf("tuple batch round trip: %v -> %v (%v)", b, b2, err)
			}
		}
		if sv, st, err := DecodePeerStats(data); err == nil {
			enc := EncodePeerStats(sv, st)
			sv2, st2, err := DecodePeerStats(enc)
			if err != nil || !bytes.Equal(enc, EncodePeerStats(sv2, st2)) {
				t.Fatalf("peer stats round trip: %d/%v -> %d/%v (%v)", sv, st, sv2, st2, err)
			}
		}
		if recs, err := DecodeChangeBatch(data); err == nil {
			enc := EncodeChangeBatch(recs)
			if r2, err := DecodeChangeBatch(enc); err != nil || !bytes.Equal(enc, EncodeChangeBatch(r2)) {
				t.Fatalf("change batch round trip: %v -> %v (%v)", recs, r2, err)
			}
		}
		if since, err := DecodeSubscribeSince(data); err == nil {
			enc := EncodeSubscribeSince(since)
			if s2, err := DecodeSubscribeSince(enc); err != nil || !bytes.Equal(enc, EncodeSubscribeSince(s2)) {
				t.Fatalf("subscribe-since round trip: %v -> %v (%v)", since, s2, err)
			}
		}
		if r, err := DecodeColumns(columnsSchema, data, 0); err == nil {
			enc := AppendColumns(nil, r)
			if r2, err := DecodeColumns(columnsSchema, enc, 0); err != nil || !bytes.Equal(enc, AppendColumns(nil, r2)) {
				t.Fatalf("columns round trip: %v -> %v (%v)", r.Rows(), r2, err)
			}
			// What decoded is the encoding an InsertBatch of its rows makes.
			bulk := New(columnsSchema)
			if err := bulk.InsertBatch(r.Rows()); err != nil || !bytes.Equal(enc, AppendColumns(nil, bulk)) {
				t.Fatalf("decoded columns are not InsertBatch's encoding of rows %v (%v)", r.Rows(), err)
			}
		}
		if sp, err := DecodeSubPlan(data); err == nil {
			enc := EncodeSubPlan(sp)
			if sp2, err := DecodeSubPlan(enc); err != nil || !bytes.Equal(enc, EncodeSubPlan(sp2)) {
				t.Fatalf("sub-plan round trip: %+v -> %+v (%v)", sp, sp2, err)
			}
		}
		// Frame parsing over the same bytes: header + bounded payload,
		// the same frames whether read fresh or into a reused buffer.
		fresh, reused := bytes.NewReader(data), bytes.NewReader(data)
		var buf []byte
		for {
			ft, fp, ferr := ReadFrame(fresh, nil)
			rt, rp, rerr := ReadFrame(reused, &buf)
			if ft != rt || !bytes.Equal(fp, rp) || (ferr == nil) != (rerr == nil) {
				t.Fatalf("reused buffer read %d/%x/%v, fresh read %d/%x/%v", rt, rp, rerr, ft, fp, ferr)
			}
			if ferr != nil {
				break
			}
		}
	})
}

// FuzzInsertBatch holds the bulk load to its contract on relations the
// input shapes. The input's first byte picks an arity of 1–3 and a type
// per column, the second how many rows are inserted one by one before
// the batch, and the third whether one batch tuple is swapped for an
// incompatible one (odd) and where; the fourth picks that tuple's
// fault, and every later byte is one value. A compatible batch must
// leave the relation exactly as an Insert per row leaves it — rows,
// statistics, codes, decode tables and code indexes, as
// TestInsertBatchMatchesInsert compares them. A batch with an
// incompatible tuple must return an error and change nothing: not the
// length, not the version, not the encoding. The committed corpus
// (testdata/fuzz/FuzzInsertBatch) seeds each shape: all three value
// kinds, columns on both sides of smallDictWidth, a per-row prefix, and
// both faults. Every input runs twice: once as it says, and once with
// the bulk side replaced after its prefix by DecodeColumns of its
// AppendColumns — a relation with no row image, as recovery leaves it —
// so the batch lands before anything reads its rows.
func FuzzInsertBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInsertBatch(t, data, false)
		checkInsertBatch(t, data, true)
	})
}

// checkInsertBatch is one FuzzInsertBatch run; decoded starts the bulk
// side from its decoded encoding.
func checkInsertBatch(t *testing.T, data []byte, decoded bool) {
	if len(data) < 4 {
		return
	}
	arity := 1 + int(data[0]%3)
	attrs := make([]Attribute, arity)
	kinds := int(data[0] / 3)
	for c := range attrs {
		attrs[c] = Attribute{Name: fmt.Sprintf("c%d", c), Type: Type(kinds % 3)}
		kinds /= 3
	}
	s := NewSchema("fuzz", attrs...)
	var rows []Tuple
	for vals := data[4:]; len(vals) >= arity; vals = vals[arity:] {
		row := make(Tuple, arity)
		for c := range row {
			row[c] = bulkValue(attrs[c].Type, int(vals[c]))
		}
		rows = append(rows, row)
	}
	prefix := min(int(data[1]), len(rows))
	inc, bulk := New(s), New(s)
	for _, row := range rows[:prefix] {
		inc.MustInsert(row...)
		bulk.MustInsert(row...)
	}
	if decoded {
		ver := bulk.Version()
		var err error
		if bulk, err = DecodeColumns(s, AppendColumns(nil, bulk), 0); err != nil {
			t.Fatalf("decoding the prefix: %v", err)
		}
		bulk.RestoreVersion(ver)
	}
	batch := rows[prefix:]
	if data[2]%2 == 0 {
		for _, row := range batch {
			inc.MustInsert(row...)
		}
		if err := bulk.InsertBatch(batch); err != nil {
			t.Fatalf("compatible batch refused: %v", err)
		}
		sameRelation(t, "batch", inc, bulk, false)
		return
	}
	bad := make(Tuple, arity)
	for c := range bad {
		bad[c] = bulkValue(attrs[c].Type, 0)
	}
	if data[3]%2 == 0 {
		bad = append(bad, IV(0)) // one column too many
	} else {
		c := int(data[3]/2) % arity
		bad[c] = Value{Kind: (attrs[c].Type + 1) % 3} // the wrong kind
	}
	batch = slices.Clone(batch)
	if len(batch) == 0 {
		batch = append(batch, bad)
	} else {
		batch[int(data[2]/2)%len(batch)] = bad
	}
	want := bulk.SnapshotAs("want")
	n, ver, dict := bulk.Len(), bulk.Version(), bulk.dict
	if err := bulk.InsertBatch(batch); err == nil {
		t.Fatalf("batch holding %v accepted", bad)
	}
	if bulk.Len() != n || bulk.Version() != ver || bulk.dict != dict ||
		bulk.encRows != n || bulk.statRows != n {
		t.Fatalf("refused batch changed the length, version or encoding")
	}
	want.RestoreVersion(ver)
	sameRelation(t, "refused", want, bulk, true)
}

// FuzzApplyChanges holds the one verified apply to its all-or-nothing
// contract on runs the input shapes. The first byte picks an arity of
// 1–2 and a kind per column, the second how many rows are inserted one
// by one before the run, the third which record (if any) is faulted and
// the fourth how: a foreign relation name, a version that does not
// advance, a row count off by one, an unexpected op, or a tuple one
// column too wide. Every later 1+arity bytes are one record: its op
// (insert or delete), how far its version advances, and its tuple;
// unfaulted records carry the row count the run honestly leaves. The
// oracle applies the run record by record — Insert or Delete on a
// clone, checking each record's name, version, op, tuple and count —
// and ApplyChanges must agree with it: a refused run leaves the
// relation's rows, length, version, statistics and encoding as they
// were; an accepted one lands on the last record's (version, rows) and
// equals the clone, in place for an insert-only run and on a new
// relation, the receiver untouched, for a run that holds a delete. The
// committed corpus (testdata/fuzz/FuzzApplyChanges) seeds insert-only
// and mixed runs, every fault, and deletes that remove nothing.
func FuzzApplyChanges(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		arity := 1 + int(data[0]%2)
		attrs := make([]Attribute, arity)
		kinds := int(data[0] / 2)
		for c := range attrs {
			attrs[c] = Attribute{Name: fmt.Sprintf("c%d", c), Type: Type(kinds % 3)}
			kinds /= 3
		}
		r := New(NewSchema("fuzz", attrs...))
		value := func(c int, b byte) Value { return bulkValue(attrs[c].Type, int(b%4)) }
		for i := range int(data[1] % 8) {
			row := make(Tuple, arity)
			for c := range row {
				row[c] = value(c, byte(i+c))
			}
			r.MustInsert(row...)
		}

		// The honest run, with each record's count from a clone.
		honest := r.Clone()
		var recs []ChangeRecord
		ver := r.Version()
		for vals := data[4:]; len(vals) > arity; vals = vals[1+arity:] {
			rec := ChangeRecord{Op: ChangeInsert, Rel: "fuzz", Tuple: make(Tuple, arity)}
			for c := range rec.Tuple {
				rec.Tuple[c] = value(c, vals[1+c])
			}
			if vals[0]%2 == 1 {
				rec.Op = ChangeDelete
				honest.Delete(rec.Tuple)
			} else {
				honest.MustInsert(rec.Tuple...)
			}
			ver += 1 + uint64(vals[0]/2%3)
			rec.Ver, rec.Rows = ver, honest.Len()
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			return
		}
		if i := int(data[2]) % (len(recs) + 1); i < len(recs) {
			rec := &recs[i]
			switch data[3] % 5 {
			case 0:
				rec.Rel = "other"
			case 1:
				rec.Ver = r.Version()
				if i > 0 {
					rec.Ver = recs[i-1].Ver
				}
			case 2:
				rec.Rows += 1 - 2*int(data[3]/5%2)
			case 3:
				rec.Op = ChangeSchema
			case 4:
				rec.Tuple = append(rec.Tuple[:arity:arity], IV(0))
			}
		}

		// The oracle: record by record on a clone.
		model, ok := r.Clone(), true
		prev, hasDelete := r.Version(), false
		for _, rec := range recs {
			ok = ok && rec.Rel == "fuzz" && rec.Ver > prev
			prev = rec.Ver
			switch rec.Op {
			case ChangeInsert:
				ok = ok && model.Insert(rec.Tuple) == nil
			case ChangeDelete:
				hasDelete = true
				model.Delete(rec.Tuple)
			default:
				ok = false
			}
			ok = ok && model.Len() == rec.Rows
		}

		before := r.SnapshotAs("fuzz")
		n, v, dict, enc := r.Len(), r.Version(), r.dict, EncodeTupleBatch(r.Rows())
		got, err := r.ApplyChanges(recs)
		if (err == nil) != ok {
			t.Fatalf("ApplyChanges err = %v, oracle accepts: %v (records %+v)", err, ok, recs)
		}
		untouched := func(label string) {
			t.Helper()
			if r.Len() != n || r.Version() != v || r.dict != dict || !bytes.Equal(enc, EncodeTupleBatch(r.Rows())) {
				t.Fatalf("%s: receiver's length, version or encoding changed", label)
			}
			before.RestoreVersion(v)
			sameRelation(t, label, before, r, true)
		}
		if err != nil {
			untouched("refused")
			return
		}
		last := recs[len(recs)-1]
		if got.Version() != last.Ver || got.Len() != last.Rows {
			t.Fatalf("accepted run left (%d, %d), last record says (%d, %d)", got.Version(), got.Len(), last.Ver, last.Rows)
		}
		sameRelation(t, "accepted", model, got, false)
		if hasDelete {
			if got == r {
				t.Fatalf("a run holding a delete was applied in place")
			}
			untouched("delete run")
		} else if got != r {
			t.Fatalf("an insert-only run was not applied in place")
		}
	})
}

// dictFuzzValue is the k-th value of a FuzzDictEncode column of the
// given kind: floats cycle through +0, -0 and NaN among ordinary values,
// ints share their low ten bits, and every kind has hundreds of
// distinct values, enough to grow an encode table several times.
func dictFuzzValue(kind Type, k int) Value {
	switch kind {
	case TFloat:
		switch k % 8 {
		case 0:
			return FV(0)
		case 1:
			return FV(math.Copysign(0, -1))
		case 2:
			return FV(math.NaN())
		}
		return FV(float64(k) / 4)
	case TInt:
		return IV(int64(k-128) << 10)
	}
	return SV(fmt.Sprintf("s%d", k))
}

// FuzzDictEncode is the differential for the dictionary's encode
// tables. The first byte picks an arity of 1–2 and a kind per column;
// every later byte starts one operation on the relation, its snapshots
// and the lookups, reading its operands from the bytes after it:
// Insert one row, InsertBatch a run of up to 128 rows of consecutive
// values, take a snapshot (at most three stay live), Delete a row
// (which rebuilds the owner's dictionary), Insert into the newest
// snapshot (which leaves the shared lineage), or probe one row's
// values; operations past the 64th are ignored, which bounds an
// input's cost. After every operation, on the owner and on each live
// snapshot, Code must answer, for every decode-table value, every value
// the operation named, and +0, -0, NaN and a value never inserted,
// exactly what a map[Value]int32 built from that dictionary's own
// decode table answers: first-appearance codes, == equality (+0 and -0
// are one value, NaN is never found), and nothing the owner encoded
// after the snapshot was taken. After the last operation every code
// must also decode to its row's value. The committed corpus
// (testdata/fuzz/FuzzDictEncode) seeds each kind, ±0 and NaN, and runs
// that resize the table.
func FuzzDictEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		arity := 1 + int(data[0]%2)
		attrs := make([]Attribute, arity)
		kinds := int(data[0] / 2)
		for c := range attrs {
			attrs[c] = Attribute{Name: fmt.Sprintf("c%d", c), Type: Type(kinds % 3)}
			kinds /= 3
		}
		r := New(NewSchema("fuzz", attrs...))
		var snaps []*Relation
		row := func(k int) Tuple {
			tup := make(Tuple, arity)
			for c := range tup {
				tup[c] = dictFuzzValue(attrs[c].Type, k+c)
			}
			return tup
		}
		check := func(label string, rel *Relation, probes []Tuple, decodeRows bool) {
			t.Helper()
			d := rel.Encoding()
			for c := range attrs {
				ref := make(map[Value]int32)
				for code := int32(0); int(code) < d.Width(c); code++ {
					if _, dup := ref[d.Value(c, code)]; !dup {
						ref[d.Value(c, code)] = code
					}
				}
				if len(ref) != d.Width(c) {
					t.Fatalf("%s: column %d decode table holds == values twice", label, c)
				}
				for i, code := range d.Codes(c) {
					if !decodeRows {
						break
					}
					if v, w := d.Value(c, code), rel.Rows()[i][c]; v != w && !(v.F != v.F && w.F != w.F) {
						t.Fatalf("%s: row %d column %d decodes to %v, holds %v", label, i, c, v, w)
					}
				}
				probe := func(v Value) {
					want, wantOK := ref[v]
					if got, ok := d.Code(c, v); got != want || ok != wantOK {
						t.Fatalf("%s: Code(%d, %v) = %d,%v, reference %d,%v (width %d)", label, c, v, got, ok, want, wantOK, d.Width(c))
					}
				}
				for code := int32(0); int(code) < d.Width(c); code++ {
					probe(d.Value(c, code))
				}
				for _, tup := range probes {
					probe(tup[c])
				}
				for _, v := range []Value{FV(0), FV(math.Copysign(0, -1)), FV(math.NaN()), IV(1), SV("never")} {
					probe(v)
				}
			}
		}
		checkAll := func(probes []Tuple, decodeRows bool) {
			check("owner", r, probes, decodeRows)
			for i, s := range snaps {
				check(fmt.Sprintf("snapshot %d", i), s, probes, decodeRows)
			}
		}
		for n, ops := 0, data[1:]; n < 64 && len(ops) > 0; n++ {
			op, args := ops[0]%6, ops[1:]
			need := map[byte]int{0: 1, 1: 2, 3: 1, 4: 1, 5: 1}[op]
			if len(args) < need {
				break
			}
			ops = args[need:]
			var probes []Tuple
			switch op {
			case 0:
				probes = append(probes, row(int(args[0])))
				r.MustInsert(probes[0]...)
			case 1:
				start := int(args[0]) + 256*int(args[1]%2)
				for i := range 1 + int(args[1]/2) {
					probes = append(probes, row(start+i))
				}
				if err := r.InsertBatch(probes); err != nil {
					t.Fatal(err)
				}
			case 2:
				snaps = append(snaps, r.SnapshotAs("snap"))
				if len(snaps) > 3 {
					snaps = snaps[1:]
				}
			case 3:
				probes = append(probes, row(int(args[0])))
				r.Delete(probes[0])
			case 4:
				probes = append(probes, row(int(args[0])))
				if len(snaps) > 0 {
					snaps[len(snaps)-1].MustInsert(probes[0]...)
				}
			case 5:
				probes = append(probes, row(int(args[0])))
			}
			checkAll(probes, false)
		}
		checkAll(nil, true)
	})
}
