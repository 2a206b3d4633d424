package relation

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 10_000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameType(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ != FrameType(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(p))
		}
	}
	if _, _, err := ReadFrame(&buf, nil); err != io.EOF {
		t.Fatalf("drained stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	// Type byte + a length prefix claiming 1 GiB.
	raw := []byte{byte(FrameTupleBatch), 0x40, 0x00, 0x00, 0x00}
	if _, _, err := ReadFrame(bytes.NewReader(raw), nil); err == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

func TestReadFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameSchema, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(full[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	ver, err := DecodeHello(EncodeHello())
	if err != nil {
		t.Fatal(err)
	}
	if ver != WireVersion {
		t.Fatalf("version %d, want %d", ver, WireVersion)
	}
	if _, err := DecodeHello([]byte("XXXX\x01")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeHello([]byte("RV")); err == nil {
		t.Fatal("short hello accepted")
	}
}

func TestSchemaWireRoundTrip(t *testing.T) {
	s := NewSchema("course", Attr("title"), IntAttr("size"), FloatAttr("rating"))
	got, err := DecodeSchema(EncodeSchema(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != s.String() {
		t.Fatalf("round trip: %s, want %s", got, s)
	}
	// Empty schema (no attributes) survives too.
	e, err := DecodeSchema(EncodeSchema(Schema{Name: "empty"}))
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "empty" || e.Arity() != 0 {
		t.Fatalf("empty schema round trip: %v", e)
	}
}

func TestDecodeSchemaRejectsHostileCount(t *testing.T) {
	// A tiny payload claiming 2^40 attributes must fail with an error,
	// not pre-allocate by the claimed count.
	payload := appendString(nil, "x")
	payload = append(payload, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // uvarint 2^42
	if _, err := DecodeSchema(payload); err == nil {
		t.Fatal("hostile attribute count accepted")
	}
}

func TestTupleBatchWireRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	batch := []Tuple{
		{SV(""), IV(0), FV(0)},
		{SV("héllo\tworld\n"), IV(-42), FV(-3.14159)},
		{SV(strings.Repeat("x", 1000)), IV(1 << 62), FV(1e300)},
		{IV(math.MinInt64), IV(math.MaxInt64), IV(-1)},
	}
	for i := 0; i < 50; i++ {
		t := Tuple{}
		for j := 0; j < rnd.Intn(5); j++ {
			switch rnd.Intn(3) {
			case 0:
				t = append(t, SV(string(rune('a'+rnd.Intn(26)))))
			case 1:
				t = append(t, IV(rnd.Int63()-rnd.Int63()))
			default:
				t = append(t, FV(rnd.NormFloat64()))
			}
		}
		batch = append(batch, t)
	}
	enc := EncodeTupleBatch(batch)
	if n := tupleBatchLen(batch); n != len(enc) {
		t.Fatalf("sized the payload at %d bytes, encoded %d", n, len(enc))
	}
	got, err := DecodeTupleBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("count %d, want %d", len(got), len(batch))
	}
	for i := range batch {
		if !got[i].Equal(batch[i]) {
			t.Fatalf("tuple %d: %v, want %v", i, got[i], batch[i])
		}
	}
	// Empty batch.
	if got, err := DecodeTupleBatch(EncodeTupleBatch(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

func TestTupleBatchRejectsCorruption(t *testing.T) {
	good := EncodeTupleBatch([]Tuple{{SV("ab"), IV(7)}})
	// Every strict prefix must fail, not decode partially.
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeTupleBatch(good[:cut]); err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeTupleBatch(append(append([]byte{}, good...), 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Unknown value kind is rejected.
	bad := append([]byte{}, good...)
	bad[2] = 0x7F // first value's kind byte
	if _, err := DecodeTupleBatch(bad); err == nil {
		t.Fatal("unknown value kind accepted")
	}
}

// TestDecodeColumnsRefuses: a columns payload that is not the encoding
// an Insert per row builds is refused, whatever its checksum vouched
// for — a code at or above its column's width, a value of the wrong
// kind, a repeated or unused decode-table value, codes out of
// first-appearance order — and so is every strict prefix of a good one.
func TestDecodeColumnsRefuses(t *testing.T) {
	s := NewSchema("r", Attr("a"))
	// payload is one column of len(codes) rows: the decode table vals,
	// then one byte per code.
	payload := func(vals []Value, codes ...byte) []byte {
		b := binary.AppendUvarint(nil, uint64(len(codes)))
		b = binary.AppendUvarint(b, uint64(len(vals)))
		for _, v := range vals {
			b = appendValue(b, v)
		}
		b = binary.AppendUvarint(b, uint64(len(codes)))
		return append(b, codes...)
	}
	good := payload([]Value{SV("x"), SV("y")}, 0, 1, 0)
	r, err := DecodeColumns(s, good, 0)
	if err != nil || r.Len() != 3 || !r.Row(2).Equal(Tuple{SV("x")}) {
		t.Fatalf("good payload: %v, %v", r, err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeColumns(s, good[:cut], 0); err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
	}
	for _, tc := range []struct {
		name, want string
		payload    []byte
	}{
		{"code at width", "code 2 at or above its width 2", payload([]Value{SV("x"), SV("y")}, 0, 2, 1)},
		{"wrong kind", "holds a int value, want string", payload([]Value{SV("x"), IV(1)}, 0, 1)},
		{"repeated value", "value x repeats", payload([]Value{SV("x"), SV("x")}, 0, 1)},
		{"unused value", "value y is used by no row", payload([]Value{SV("x"), SV("y")}, 0, 0)},
		{"out of order", "code 1 appears before code 0", payload([]Value{SV("x"), SV("y")}, 1, 0)},
		{"trailing bytes", "trailing bytes", append(payload([]Value{SV("x")}, 0), 0)},
	} {
		if _, err := DecodeColumns(s, tc.payload, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeColumns = %v, want the %q refusal", tc.name, err, tc.want)
		}
	}
}

func TestPeerStatsWireRoundTrip(t *testing.T) {
	r := New(NewSchema("c", Attr("a"), IntAttr("b")))
	for i := 0; i < 100; i++ {
		r.MustInsert(SV(string(rune('a'+i%7))), IV(int64(i)))
	}
	in := []NamedStats{
		{Name: "c", Stats: r.Stats()},
		{Name: "nostats", Stats: Stats{Rows: 3, Version: 9}}, // nil Distinct
	}
	sv, out, err := DecodePeerStats(EncodePeerStats(42, in))
	if err != nil {
		t.Fatal(err)
	}
	if sv != 42 {
		t.Fatalf("schema version %d, want 42", sv)
	}
	if len(out) != len(in) {
		t.Fatalf("relation count %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Name != in[i].Name || out[i].Stats.Rows != in[i].Stats.Rows ||
			out[i].Stats.Version != in[i].Stats.Version ||
			len(out[i].Stats.Distinct) != len(in[i].Stats.Distinct) {
			t.Fatalf("stats %d: %+v, want %+v", i, out[i], in[i])
		}
		for c := range in[i].Stats.Distinct {
			if out[i].Stats.Distinct[c] != in[i].Stats.Distinct[c] {
				t.Fatalf("stats %d col %d: %v, want %v", i, c,
					out[i].Stats.Distinct[c], in[i].Stats.Distinct[c])
			}
		}
	}
}

func TestErrorWireRoundTrip(t *testing.T) {
	we, err := DecodeError(EncodeError(ErrCodeUnknownRelation, "no such relation"))
	if err != nil {
		t.Fatal(err)
	}
	if we.Code != ErrCodeUnknownRelation || we.Message != "no such relation" {
		t.Fatalf("round trip: %+v", we)
	}
	if we.Error() == "" {
		t.Fatal("empty Error() string")
	}
	if _, err := DecodeError(nil); err == nil {
		t.Fatal("empty error payload accepted")
	}
}

// TestReadFrameAllocatesAsBytesArrive: a length prefix alone must not
// make a reader allocate the payload it claims. A header claiming
// MaxFramePayload followed by end of stream allocates well under 1 MiB
// and reports the truncation.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	raw := []byte{byte(FrameTupleBatch), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(raw[1:], MaxFramePayload)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(bytes.NewReader(raw), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("header-only frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("header-only frame allocated %d bytes, want < 1 MiB", got)
	}
}

// TestReadFrameReusesBuffer reads frames of growing and shrinking sizes
// through one payload buffer: each payload must be intact, a frame that
// fits the kept buffer must allocate nothing, and a buffer grown past
// frameChunk must not be kept.
func TestReadFrameReusesBuffer(t *testing.T) {
	sizes := []int{0, 10, 1000, frameChunk, 3*frameChunk + 7, 500, frameChunk - 1}
	var stream bytes.Buffer
	for i, n := range sizes {
		if err := WriteFrame(&stream, FrameType(i+1), bytes.Repeat([]byte{byte(i + 1)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i, n := range sizes {
		typ, got, err := ReadFrame(&stream, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != FrameType(i+1) || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, n)) {
			t.Fatalf("frame %d (%d bytes) came back wrong", i, n)
		}
		if cap(buf) > frameChunk {
			t.Fatalf("frame %d: kept a %d-byte buffer, over %d", i, cap(buf), frameChunk)
		}
	}
	var frame bytes.Buffer
	WriteFrame(&frame, FrameTupleBatch, bytes.Repeat([]byte{7}, 1000))
	raw := frame.Bytes()
	var r bytes.Reader
	if allocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		if _, _, err := ReadFrame(&r, &buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a frame that fits the kept buffer allocated %.0f times", allocs)
	}
}

// TestDecodeTupleBatchOneBlock holds a decoded frame to one row slice
// and one block of values beside its strings: 256 arity-7 rows, three
// of their values strings, take at most 3 + 768 allocations, where a
// tuple per row took 256 more. Each row is sliced with cap == len, so
// appending to one cannot overwrite the next, and a row of another
// arity decodes apart from the block.
func TestDecodeTupleBatchOneBlock(t *testing.T) {
	rows := make([]Tuple, 256)
	strs := 0
	for i := range rows {
		rows[i] = Tuple{SV(fmt.Sprintf("a%d", i)), IV(int64(i)), FV(float64(i) / 7), SV(fmt.Sprintf("b%d", i)),
			IV(-int64(i)), SV(fmt.Sprintf("c%d", i)), IV(7)}
		strs += 3
	}
	enc := EncodeTupleBatch(rows)
	got, err := DecodeTupleBatch(enc)
	if err != nil || len(got) != len(rows) {
		t.Fatalf("decoded %d rows, %v; want %d", len(got), err, len(rows))
	}
	for i, r := range got {
		if !r.Equal(rows[i]) || cap(r) != len(r) {
			t.Fatalf("row %d: %v with cap %d, want %v with cap %d", i, r, cap(r), rows[i], len(rows[i]))
		}
	}
	if !raceEnabled {
		allocs := testing.AllocsPerRun(20, func() { got, err = DecodeTupleBatch(enc) })
		t.Logf("256 arity-7 rows, %d strings: %.0f allocations", strs, allocs)
		if ceiling := float64(3 + strs); allocs > ceiling {
			t.Errorf("decoding 256 arity-7 rows allocated %.0f times, over %.0f", allocs, ceiling)
		}
	}

	mixed := []Tuple{{IV(1), IV(2)}, {IV(3)}, {}, {IV(4), IV(5)}, {IV(6), IV(7), IV(8)}, {IV(9), IV(10)}}
	got, err = DecodeTupleBatch(EncodeTupleBatch(mixed))
	if err != nil || len(got) != len(mixed) {
		t.Fatalf("mixed arities: %d rows, %v", len(got), err)
	}
	for i, r := range got {
		if !r.Equal(mixed[i]) || cap(r) != len(r) {
			t.Fatalf("mixed row %d: %v with cap %d, want %v", i, r, cap(r), mixed[i])
		}
	}
	_ = append(got[0], IV(99))
	if !got[1].Equal(mixed[1]) || !got[3].Equal(mixed[3]) {
		t.Errorf("appending to row 0 changed a later row: %v", got)
	}

	// One row claiming 30 000 values over 30 000 bytes, which hold at
	// most 15 000: refused before a tuple is sized by the claim (a
	// 1.2 MB tuple was, before).
	hostile := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 30000)
	for len(hostile) < 30000+3 {
		hostile = append(hostile, byte(TInt), 0)
	}
	if _, err := DecodeTupleBatch(hostile); err == nil {
		t.Fatal("an arity the payload cannot hold was accepted")
	}
	if !raceEnabled {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = DecodeTupleBatch(hostile)
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Errorf("refusing a claimed arity allocated %d B", b)
		}
	}
}

// TestAppendTupleBatchSizesOnce holds a tuple batch's encoding to one
// allocation, sized to the payload up front — a 200-row batch grown from
// nothing by append took 16 and 4× the payload's bytes — and a
// re-encoding into the buffer a stream keeps to none.
func TestAppendTupleBatchSizesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own")
	}
	rows := make([]Tuple, 200)
	for i := range rows {
		rows[i] = Tuple{SV(fmt.Sprintf("course %d", i)), IV(int64(i) - 100), FV(float64(i) / 3)}
	}
	var enc []byte
	if allocs := testing.AllocsPerRun(20, func() { enc = EncodeTupleBatch(rows) }); allocs != 1 {
		t.Errorf("encoding 200 rows allocated %.0f times, want 1", allocs)
	}
	if n := tupleBatchLen(rows); n != len(enc) {
		t.Errorf("sized the payload at %d bytes, encoded %d", n, len(enc))
	}
	if allocs := testing.AllocsPerRun(20, func() { enc = AppendTupleBatch(enc[:0], rows[:150]) }); allocs != 0 {
		t.Errorf("re-encoding into a kept buffer allocated %.0f times", allocs)
	}
}
