package relation

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
)

// This file is the binary wire layer of the distributed serving
// subsystem: a versioned, length-prefixed frame format plus payload
// codecs for the things peers exchange — relation schemas, tuple
// batches, per-peer statistics fingerprints, and errors. The framing is
// deliberately dumb (one type byte, a big-endian length, opaque
// payload) so any transport that can move bytes — TCP, pipes, an
// in-process loopback — can carry it. PROTOCOL.md is the normative
// spec, including a worked hex-annotated example frame; keep the two in
// sync.

// WireVersion is the protocol version this build speaks. Hello frames
// carry it; an endpoint receiving a different version answers with an
// ErrCodeVersion error frame and closes.
const WireVersion = 1

// wireMagic opens every Hello payload so a peer dialed by something
// that is not speaking this protocol fails fast and loudly.
var wireMagic = [4]byte{'R', 'V', 'R', 'P'}

// FrameType tags what a frame's payload contains.
type FrameType byte

// Frame types of protocol version 1. Values are part of the wire
// contract — never renumber, only append.
const (
	// FrameHello opens a connection in both directions: magic + version.
	FrameHello FrameType = 0x01
	// FrameRequest asks the serving side for schemas, state, or a scan.
	// The payload layout is owned by the transport layer.
	FrameRequest FrameType = 0x02
	// FrameSchema carries one relation schema.
	FrameSchema FrameType = 0x03
	// FrameTupleBatch carries a batch of self-describing tuples.
	FrameTupleBatch FrameType = 0x04
	// FrameStats carries a peer's statistics fingerprint: its schema
	// version plus per-relation row counts, mutation versions, and
	// distinct-value estimates.
	FrameStats FrameType = 0x05
	// FrameDelta carries a batch of change records: the insert/delete
	// log entries a durable peer replays to a mirror that is catching up
	// from a known (version, rows) fingerprint instead of re-scanning.
	FrameDelta FrameType = 0x06
	// FrameError aborts a response with a code and message.
	FrameError FrameType = 0x0E
	// FrameEnd terminates a multi-frame response (schema lists, scans).
	FrameEnd FrameType = 0x0F
)

// MaxFramePayload bounds a single frame's payload (16 MiB). ReadFrame
// rejects anything larger before allocating, and allocates a payload as
// its bytes arrive (see frameChunk), so a corrupt or hostile length
// prefix cannot balloon memory.
const MaxFramePayload = 16 << 20

// frameChunk is both the most ReadFrame allocates for a payload ahead of
// its bytes arriving — a payload buffer starts at most this large and
// then doubles as it fills — and the largest payload buffer ReadFrame
// hands back to a caller for reuse, so one big frame does not pin its
// size for a connection's life.
const frameChunk = 64 << 10

// frameHeaderLen is the fixed frame prefix: 1 type byte + 4 length bytes.
const frameHeaderLen = 5

// WriteFrame writes one frame — type byte, big-endian uint32 payload
// length, payload — to w in a single Write call so concurrent framing
// errors never interleave partial headers.
func WriteFrame(w io.Writer, typ FrameType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("relation: frame payload %d exceeds %d bytes", len(payload), MaxFramePayload)
	}
	buf := make([]byte, frameHeaderLen+len(payload))
	buf[0] = byte(typ)
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	copy(buf[frameHeaderLen:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, returning its type and payload. It
// fails on oversized length prefixes without allocating, and converts a
// clean EOF on the frame boundary into io.EOF (mid-frame truncation is
// io.ErrUnexpectedEOF). buf, when not nil, is the caller's reusable
// payload buffer: the payload is read into *buf's backing array when it
// fits, and the array is kept in *buf for the next call when it is at
// most frameChunk bytes, so the payload is valid only until the next
// ReadFrame with the same buf. Every decoder in this package copies what
// it keeps out of a payload. With buf nil each payload is freshly
// allocated.
func ReadFrame(r io.Reader, buf *[]byte) (FrameType, []byte, error) {
	// The header is read into the buffer the payload then overwrites, so
	// a frame that fits a kept buffer allocates nothing.
	var hdr []byte
	if buf != nil {
		hdr = (*buf)[:0]
	}
	hdr = slices.Grow(hdr, frameHeaderLen)[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("relation: truncated frame header: %w", err)
		}
		return 0, nil, err
	}
	typ, n := FrameType(hdr[0]), int(binary.BigEndian.Uint32(hdr[1:5]))
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("relation: frame payload %d exceeds %d bytes", n, MaxFramePayload)
	}
	payload := hdr[:0]
	for len(payload) < n {
		if len(payload) == cap(payload) {
			grown := make([]byte, len(payload), min(n, max(frameChunk, 2*cap(payload))))
			copy(grown, payload)
			payload = grown
		}
		got, err := io.ReadFull(r, payload[len(payload):min(n, cap(payload))])
		payload = payload[:len(payload)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("relation: truncated frame payload: %w", err)
		}
	}
	if buf != nil && cap(payload) <= frameChunk {
		*buf = payload[:0]
	}
	return typ, payload, nil
}

// EncodeHello builds a Hello payload: magic + protocol version.
func EncodeHello() []byte {
	buf := append([]byte(nil), wireMagic[:]...)
	return binary.AppendUvarint(buf, WireVersion)
}

// DecodeHello validates a Hello payload and returns the peer's protocol
// version. A bad magic is a hard error; a version mismatch is returned
// as the version with no error so the caller can answer with a typed
// ErrCodeVersion error frame.
func DecodeHello(payload []byte) (uint64, error) {
	if len(payload) < len(wireMagic) || [4]byte(payload[:4]) != wireMagic {
		return 0, fmt.Errorf("relation: bad hello magic")
	}
	ver, n := binary.Uvarint(payload[4:])
	if n <= 0 {
		return 0, fmt.Errorf("relation: truncated hello version")
	}
	return ver, nil
}

// appendString appends a uvarint length-prefixed string.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeString consumes a uvarint length-prefixed string.
func decodeString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("relation: truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// EncodeSchema renders a schema as a FrameSchema payload: relation
// name, attribute count, then per attribute its name and a type byte.
func EncodeSchema(s Schema) []byte {
	buf := appendString(nil, s.Name)
	buf = binary.AppendUvarint(buf, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		buf = appendString(buf, a.Name)
		buf = append(buf, byte(a.Type))
	}
	return buf
}

// DecodeSchema parses a FrameSchema payload.
func DecodeSchema(payload []byte) (Schema, error) {
	name, rest, err := decodeString(payload)
	if err != nil {
		return Schema{}, err
	}
	n, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return Schema{}, fmt.Errorf("relation: truncated schema arity")
	}
	rest = rest[sz:]
	// Cap the pre-allocation: n is attacker-controlled until proven by
	// actual payload bytes.
	capN := n
	if capN > 4096 {
		capN = 4096
	}
	s := Schema{Name: name, Attrs: make([]Attribute, 0, capN)}
	for i := uint64(0); i < n; i++ {
		var attr string
		attr, rest, err = decodeString(rest)
		if err != nil {
			return Schema{}, err
		}
		if len(rest) < 1 {
			return Schema{}, fmt.Errorf("relation: truncated attribute type")
		}
		kind := Type(rest[0])
		rest = rest[1:]
		if kind != TString && kind != TInt && kind != TFloat {
			return Schema{}, fmt.Errorf("relation: unknown attribute type %d", kind)
		}
		s.Attrs = append(s.Attrs, Attribute{Name: attr, Type: kind})
	}
	return s, nil
}

// appendValue appends one self-describing value: a kind byte followed
// by the kind's payload (strings length-prefixed, ints zigzag varint,
// floats 8-byte big-endian IEEE 754).
func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case TString:
		buf = appendString(buf, v.S)
	case TInt:
		buf = binary.AppendVarint(buf, v.I)
	case TFloat:
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.F))
	}
	return buf
}

// tupleBatchLen is the length of batch's FrameTupleBatch payload.
func tupleBatchLen(batch []Tuple) int {
	n := uvarintLen(uint64(len(batch)))
	for _, t := range batch {
		n += uvarintLen(uint64(len(t))) + len(t) // arity, kind bytes
		for _, v := range t {
			switch v.Kind {
			case TString:
				n += uvarintLen(uint64(len(v.S))) + len(v.S)
			case TInt:
				n += uvarintLen(uint64(v.I<<1) ^ uint64(v.I>>63)) // zigzag
			case TFloat:
				n += 8
			}
		}
	}
	return n
}

// uvarintLen is how many bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// decodeValue consumes one self-describing value.
func decodeValue(b []byte) (Value, []byte, error) {
	if len(b) < 1 {
		return Value{}, nil, fmt.Errorf("relation: truncated value kind")
	}
	kind := Type(b[0])
	b = b[1:]
	switch kind {
	case TString:
		s, rest, err := decodeString(b)
		if err != nil {
			return Value{}, nil, err
		}
		return SV(s), rest, nil
	case TInt:
		i, sz := binary.Varint(b)
		if sz <= 0 {
			return Value{}, nil, fmt.Errorf("relation: truncated int value")
		}
		return IV(i), b[sz:], nil
	case TFloat:
		if len(b) < 8 {
			return Value{}, nil, fmt.Errorf("relation: truncated float value")
		}
		return FV(math.Float64frombits(binary.BigEndian.Uint64(b[:8]))), b[8:], nil
	}
	return Value{}, nil, fmt.Errorf("relation: unknown value kind %d", kind)
}

// EncodeTupleBatch renders tuples as a FrameTupleBatch payload in a
// fresh buffer: AppendTupleBatch(nil, batch).
func EncodeTupleBatch(batch []Tuple) []byte { return AppendTupleBatch(nil, batch) }

// AppendTupleBatch appends tuples to dst as a FrameTupleBatch payload:
// tuple count, then per tuple its arity and self-describing values.
// Batches are self-contained — a reader needs no schema to decode one —
// so mid-stream corruption is detected per frame, not per scan. dst
// grows at most once, to exactly the payload's size, and a stream that
// encodes batch after batch passes its previous payload's buffer back
// as dst[:0], so it allocates only when a batch outgrows every one
// before it.
func AppendTupleBatch(dst []byte, batch []Tuple) []byte {
	dst = slices.Grow(dst, tupleBatchLen(batch))
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for _, t := range batch {
		dst = binary.AppendUvarint(dst, uint64(len(t)))
		for _, v := range t {
			dst = appendValue(dst, v)
		}
	}
	return dst
}

// minValueBytes is the fewest bytes an encoded value takes: its kind
// byte and at least one payload byte (a string's length, an int's
// varint; a float takes eight).
const minValueBytes = 2

// DecodeTupleBatch parses a FrameTupleBatch payload. The rows whose
// arity is the first row's slice one block of values, each row with
// cap == len; a row of another arity gets a tuple of its own. The row
// slice and the block are sized by the rows the payload's bytes can
// hold, never by the count the payload claims, and an arity more values
// than the rest of the payload can encode is refused before anything is
// sized by it.
func DecodeTupleBatch(payload []byte) ([]Tuple, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return nil, fmt.Errorf("relation: truncated batch count")
	}
	rest := payload[sz:]
	// n is attacker-controlled until proven by payload bytes: a row takes
	// at least one byte (its arity), and each of its values minValueBytes.
	batch := make([]Tuple, 0, min(n, uint64(len(rest)), 4096))
	var block []Value
	var blockArity uint64
	for i := uint64(0); i < n; i++ {
		arity, sz := binary.Uvarint(rest)
		if sz <= 0 || arity > uint64(len(rest)-sz)/minValueBytes {
			return nil, fmt.Errorf("relation: truncated tuple arity")
		}
		if i == 0 && arity > 0 {
			rows := min(n, uint64(len(rest))/(1+minValueBytes*arity))
			block, blockArity = make([]Value, rows*arity), arity
		}
		rest = rest[sz:]
		var t Tuple
		if arity > 0 && arity == blockArity && uint64(len(block)) >= arity {
			t, block = Tuple(block[:arity:arity]), block[arity:]
		} else {
			t = make(Tuple, arity)
		}
		for j := range t {
			var err error
			t[j], rest, err = decodeValue(rest)
			if err != nil {
				return nil, err
			}
		}
		batch = append(batch, t)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("relation: %d trailing bytes after tuple batch", len(rest))
	}
	return batch, nil
}

// AppendColumns appends r's dictionary encoding to dst, the columnar
// payload a durable store keeps a relation in: the row count, then per
// column its width, its decode table in code order (self-describing
// values), and its code vector as a count and one little-endian code of
// codeBytes(width) bytes per row. A relation with no columns writes one
// zero byte per row instead, so its row count, like every other, is paid
// for in bytes. The relation's own encoding numbers each column's values
// in first-appearance order and holds no value its rows do not, so the
// payload is what DecodeColumns needs to rebuild, with no hashing per
// row, the relation an InsertBatch of the same rows builds.
func AppendColumns(dst []byte, r *Relation) []byte {
	d := r.Encoding()
	dst = binary.AppendUvarint(dst, uint64(d.n))
	if len(d.cols) == 0 {
		return append(dst, make([]byte, d.n)...)
	}
	for i := range d.cols {
		c := &d.cols[i]
		dst = binary.AppendUvarint(dst, uint64(len(c.vals)))
		for _, v := range c.vals {
			dst = appendValue(dst, v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(c.codes)))
		w := codeBytes(len(c.vals))
		dst = slices.Grow(dst, w*len(c.codes))
		for _, code := range c.codes {
			for k := 0; k < w; k++ {
				dst = append(dst, byte(code>>(8*k)))
			}
		}
	}
	return dst
}

// codeBytes is how many bytes a code of a column width values wide takes
// in an AppendColumns payload: the fewest that hold width-1, at least one.
func codeBytes(width int) int {
	return max(1, (bits.Len(uint(max(width, 1)-1))+7)/8)
}

// DecodeColumns rebuilds a relation of the given schema from an
// AppendColumns payload, as an InsertBatch of the rows into New(schema)
// would leave it — statistics, codes, decode tables, encode tables — at
// O(rows) code reads plus O(distinct values) hashing: the codes and
// decode tables are installed as read, an encode table indexes each
// distinct value once, and each distinct value is folded into its
// column's KMV sketch once, which leaves the bits a fold of every row
// leaves. The relation holds no row image: the first read of a row
// builds it from the codes (see Rows), so a relation that is only
// probed, counted, logged to or checkpointed never decodes a row. spare
// is room reserved past the rows in the code vectors, for appends the
// caller knows are coming.
//
// Nothing in the payload is trusted: every row, width and code count is
// checked against the bytes left before anything is sized by it, and a
// code at or above its column's width, a value of another kind than the
// column's, a decode-table value equal to an earlier one, a code that
// appears before every lower code has, and a decode-table value no row
// uses are each an error.
func DecodeColumns(schema Schema, payload []byte, spare int) (*Relation, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return nil, fmt.Errorf("relation: truncated %s row count", schema.Name)
	}
	rest := payload[sz:]
	arity := schema.Arity()
	if n > uint64(len(rest))/uint64(max(arity, 1)) {
		return nil, fmt.Errorf("relation: %s claims %d rows, more than %d bytes hold", schema.Name, n, len(rest))
	}
	d := newDict(arity)
	sketches := make([]colSketch, arity)
	for col, attr := range schema.Attrs {
		var err error
		if rest, err = d.decodeColumn(col, attr.Type, rest, int(n), spare); err != nil {
			return nil, fmt.Errorf("relation: %s column %s: %w", schema.Name, attr.Name, err)
		}
		for _, v := range d.cols[col].vals {
			sketches[col].add(v.Hash())
		}
	}
	if arity == 0 {
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("relation: %d trailing bytes after %s columns", len(rest), schema.Name)
	}
	r := New(schema)
	if n == 0 {
		return r, nil // as InsertBatch of no rows: no mutation, nothing maintained yet
	}
	d.n = int(n)
	r.n, r.version = int(n), 1
	r.imageless.Store(true)
	r.sketches, r.statRows = sketches, int(n)
	r.dict, r.encRows = d, int(n)
	return r, nil
}

// NamedStats pairs a relation name with its statistics summary, the
// per-relation unit of a peer's statistics fingerprint.
type NamedStats struct {
	// Name is the relation's unqualified name at the serving peer.
	Name string
	// Stats is the relation's row count, version, and per-column
	// distinct estimates (Distinct may be nil when not maintained).
	Stats Stats
}

// EncodePeerStats renders a peer's statistics fingerprint as a
// FrameStats payload: the peer's schema version, then per relation its
// name, row count, mutation version, and per-column distinct-value
// estimates. Remote planners order joins from these cardinalities, and
// plan caches key on the (version, rows) pairs to decide whether a
// cached remote snapshot is still current.
func EncodePeerStats(schemaVersion uint64, stats []NamedStats) []byte {
	buf := binary.AppendUvarint(nil, schemaVersion)
	buf = binary.AppendUvarint(buf, uint64(len(stats)))
	for _, st := range stats {
		buf = appendString(buf, st.Name)
		buf = binary.AppendUvarint(buf, uint64(st.Stats.Rows))
		buf = binary.AppendUvarint(buf, st.Stats.Version)
		buf = binary.AppendUvarint(buf, uint64(len(st.Stats.Distinct)))
		for _, d := range st.Stats.Distinct {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(d))
		}
	}
	return buf
}

// DecodePeerStats parses a FrameStats payload.
func DecodePeerStats(payload []byte) (schemaVersion uint64, stats []NamedStats, err error) {
	schemaVersion, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("relation: truncated stats schema version")
	}
	rest := payload[sz:]
	n, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("relation: truncated stats count")
	}
	rest = rest[sz:]
	capN := n
	if capN > 4096 {
		capN = 4096
	}
	stats = make([]NamedStats, 0, capN)
	for i := uint64(0); i < n; i++ {
		var st NamedStats
		st.Name, rest, err = decodeString(rest)
		if err != nil {
			return 0, nil, err
		}
		rows, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return 0, nil, fmt.Errorf("relation: truncated stats rows")
		}
		rest = rest[sz:]
		st.Stats.Rows = int(rows)
		st.Stats.Version, sz = binary.Uvarint(rest)
		if sz <= 0 {
			return 0, nil, fmt.Errorf("relation: truncated stats version")
		}
		rest = rest[sz:]
		cols, sz := binary.Uvarint(rest)
		if sz <= 0 || cols > uint64(len(rest)) {
			return 0, nil, fmt.Errorf("relation: truncated stats column count")
		}
		rest = rest[sz:]
		if cols > 0 {
			if uint64(len(rest)) < cols*8 {
				return 0, nil, fmt.Errorf("relation: truncated stats distincts")
			}
			st.Stats.Distinct = make([]float64, cols)
			for c := uint64(0); c < cols; c++ {
				st.Stats.Distinct[c] = math.Float64frombits(binary.BigEndian.Uint64(rest[:8]))
				rest = rest[8:]
			}
		}
		stats = append(stats, st)
	}
	return schemaVersion, stats, nil
}

// Wire error codes carried by FrameError payloads. Values are part of
// the wire contract — never renumber, only append.
const (
	// ErrCodeUnknownPeer reports a request naming a peer the server
	// does not host.
	ErrCodeUnknownPeer uint64 = 1
	// ErrCodeUnknownRelation reports a scan of a relation absent from
	// the peer's schema.
	ErrCodeUnknownRelation uint64 = 2
	// ErrCodeBadRequest reports a malformed or unsupported request.
	ErrCodeBadRequest uint64 = 3
	// ErrCodeVersion reports a protocol version mismatch at handshake.
	ErrCodeVersion uint64 = 4
	// ErrCodeInternal reports a serving-side failure mid-response.
	ErrCodeInternal uint64 = 5
	// ErrCodeDeltaUnavailable reports a Delta request the serving peer
	// cannot satisfy from its change log — the peer is not durable, or a
	// checkpoint already discarded the records after the requested
	// version. Request-level: the client falls back to a full scan on
	// the same connection.
	ErrCodeDeltaUnavailable uint64 = 6
	// ErrCodePlanUnsupported reports a Query request the serving peer
	// cannot execute as a shipped sub-plan — it does not implement the
	// op, or the plan references relations it cannot compile.
	// Request-level: the client falls back to mirroring the relation on
	// the same connection.
	ErrCodePlanUnsupported uint64 = 7
	// ErrCodeRowBudget reports a Query request whose shipped sub-plan
	// produced more distinct answers than the request's row budget — the
	// coordinator's cost model guessed wrong, and the serving peer
	// refuses to stream an unbounded result. Request-level: the client
	// falls back to mirroring the relation on the same connection.
	ErrCodeRowBudget uint64 = 8
	// ErrCodeSubscribeGap reports a push subscription whose change feed
	// overflowed: the subscriber drained too slowly, the serving side
	// evicted it rather than block or buffer unboundedly, and records
	// were irrecoverably dropped from the stream. The frame ends the
	// subscription (the serving side closes the connection after writing
	// it); the subscriber falls back to the poll path and may resubscribe
	// from its refreshed (version, rows) fingerprints.
	ErrCodeSubscribeGap uint64 = 9
)

// WireError is a protocol-level error decoded from a FrameError frame.
type WireError struct {
	// Code is one of the ErrCode constants.
	Code uint64
	// Message is the serving side's human-readable detail.
	Message string
}

// Error implements error.
func (e *WireError) Error() string {
	return fmt.Sprintf("wire error %d: %s", e.Code, e.Message)
}

// EncodeError renders a FrameError payload: code + message.
func EncodeError(code uint64, msg string) []byte {
	buf := binary.AppendUvarint(nil, code)
	return appendString(buf, msg)
}

// ChangeOp tags what a ChangeRecord did to its relation. Values are
// part of the wire contract — never renumber, only append.
type ChangeOp byte

// Change operations carried by ChangeRecord entries.
const (
	// ChangeInsert records one tuple inserted into Rel.
	ChangeInsert ChangeOp = 1
	// ChangeDelete records the removal of every tuple equal to Tuple
	// from Rel (bag semantics: Rows reflects the post-removal count).
	ChangeDelete ChangeOp = 2
	// ChangeSchema records a relation added to the peer's schema. Only
	// the durable write-ahead log carries schema records; Delta frames
	// ship data records only (schema growth syncs through the Schemas
	// request, as before).
	ChangeSchema ChangeOp = 3
)

// ChangeRecord is one entry of a peer's mutation log: the unit both the
// durable store's WAL and FrameDelta payloads are made of. Each data
// record carries the relation's (version, rows) fingerprint *after* the
// mutation, so a reader applying records in order can verify at every
// step that it reconstructed exactly the state the writer had — the
// same fingerprint the State probe serves, which is what lets a mirror
// prove a delta catch-up reached the fingerprint it was aiming for.
type ChangeRecord struct {
	// Op says what happened: insert, delete, or schema addition.
	Op ChangeOp
	// Rel is the relation's name (the schema's name for ChangeSchema).
	Rel string
	// Ver is the relation's mutation version after the change — for
	// ChangeSchema, the peer's schema version after the addition.
	Ver uint64
	// Rows is the relation's row count after the change (data records
	// only).
	Rows int
	// Tuple is the inserted or deleted tuple (data records only).
	Tuple Tuple
	// Schema is the added relation schema (ChangeSchema only).
	Schema Schema
}

// EncodeChangeBatch renders change records as a FrameDelta payload (and
// the body of WAL entries): a record count, then per record its op
// byte, relation name, post-change fingerprint, and tuple — or, for
// schema records, the post-change schema version and a length-prefixed
// schema encoding.
func EncodeChangeBatch(recs []ChangeRecord) []byte { return AppendChangeBatch(nil, recs) }

// AppendChangeBatch appends the EncodeChangeBatch encoding of recs to
// dst, so a writer that frames every batch can encode into one buffer it
// keeps.
func AppendChangeBatch(dst []byte, recs []ChangeRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, rec := range recs {
		dst = append(dst, byte(rec.Op))
		if rec.Op == ChangeSchema {
			dst = binary.AppendUvarint(dst, rec.Ver)
			enc := EncodeSchema(rec.Schema)
			dst = binary.AppendUvarint(dst, uint64(len(enc)))
			dst = append(dst, enc...)
			continue
		}
		dst = appendString(dst, rec.Rel)
		dst = binary.AppendUvarint(dst, rec.Ver)
		dst = binary.AppendUvarint(dst, uint64(rec.Rows))
		dst = binary.AppendUvarint(dst, uint64(len(rec.Tuple)))
		for _, v := range rec.Tuple {
			dst = appendValue(dst, v)
		}
	}
	return dst
}

// DecodeChangeBatch parses a FrameDelta payload, rejecting trailing
// bytes (every record must account for itself — a torn or corrupt
// batch never half-applies).
func DecodeChangeBatch(payload []byte) ([]ChangeRecord, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return nil, fmt.Errorf("relation: truncated change batch count")
	}
	rest := payload[sz:]
	// Cap the pre-allocation: n is attacker-controlled until proven by
	// actual payload bytes.
	capN := n
	if capN > 4096 {
		capN = 4096
	}
	recs := make([]ChangeRecord, 0, capN)
	var d ChangeLogDecoder
	for i := uint64(0); i < n; i++ {
		rec, next, err := d.record(rest)
		if err != nil {
			return nil, err
		}
		recs, rest = append(recs, rec), next
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("relation: %d trailing bytes after change batch", len(rest))
	}
	return recs, nil
}

// ChangeLogDecoder decodes a write-ahead log's entry bodies, each a
// one-record change batch, for a recovery that reads the whole log at
// once. It refuses exactly what DecodeChangeBatch refuses, but the
// records it returns share their allocations: a relation name whose
// bytes equal the previous record's is the previous record's string,
// and every tuple is a slice of one value block, sized when the first
// tuple needs it for the records the log holds, at that tuple's arity,
// and for no more values than the log's bytes could encode (a wider
// tuple that finds it short sizes a new one the same way). The zero
// value, which DecodeChangeBatch uses, gives each tuple its own
// allocation.
type ChangeLogDecoder struct {
	rel   string
	block []Value
	// records and bytes are what is left of the log: the entries not
	// yet decoded and an upper bound on their bodies' bytes.
	records, bytes int
}

// NewChangeLogDecoder returns a decoder for a log of records entries
// whose bodies take at most bytes bytes.
func NewChangeLogDecoder(records, bytes int) *ChangeLogDecoder {
	return &ChangeLogDecoder{records: records, bytes: bytes}
}

// Decode parses one entry body and returns its record.
func (d *ChangeLogDecoder) Decode(body []byte) (ChangeRecord, error) {
	n, sz := binary.Uvarint(body)
	if sz <= 0 {
		return ChangeRecord{}, fmt.Errorf("relation: truncated change batch count")
	}
	if n != 1 {
		return ChangeRecord{}, fmt.Errorf("relation: log entry holds %d change records, want 1", n)
	}
	rec, rest, err := d.record(body[sz:])
	d.records--
	d.bytes -= len(body)
	if err != nil {
		return ChangeRecord{}, err
	}
	if len(rest) != 0 {
		return ChangeRecord{}, fmt.Errorf("relation: %d trailing bytes after change batch", len(rest))
	}
	return rec, nil
}

// record decodes the change record at the front of b and returns the
// bytes after it.
func (d *ChangeLogDecoder) record(b []byte) (ChangeRecord, []byte, error) {
	if len(b) < 1 {
		return ChangeRecord{}, nil, fmt.Errorf("relation: truncated change op")
	}
	rec := ChangeRecord{Op: ChangeOp(b[0])}
	rest := b[1:]
	if rec.Op == ChangeSchema {
		ver, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return ChangeRecord{}, nil, fmt.Errorf("relation: truncated change schema version")
		}
		rest = rest[sz:]
		ln, sz := binary.Uvarint(rest)
		if sz <= 0 || ln > uint64(len(rest)-sz) {
			return ChangeRecord{}, nil, fmt.Errorf("relation: truncated change schema")
		}
		s, err := DecodeSchema(rest[sz : sz+int(ln)])
		if err != nil {
			return ChangeRecord{}, nil, err
		}
		rec.Ver, rec.Rel, rec.Schema = ver, s.Name, s
		return rec, rest[sz+int(ln):], nil
	}
	if rec.Op != ChangeInsert && rec.Op != ChangeDelete {
		return ChangeRecord{}, nil, fmt.Errorf("relation: unknown change op %d", rec.Op)
	}
	ln, sz := binary.Uvarint(rest)
	if sz <= 0 || ln > uint64(len(rest)-sz) {
		return ChangeRecord{}, nil, fmt.Errorf("relation: truncated string")
	}
	if name := rest[sz : sz+int(ln)]; string(name) != d.rel {
		d.rel = string(name)
	}
	rec.Rel, rest = d.rel, rest[sz+int(ln):]
	ver, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return ChangeRecord{}, nil, fmt.Errorf("relation: truncated change version")
	}
	rest = rest[sz:]
	rows, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return ChangeRecord{}, nil, fmt.Errorf("relation: truncated change row count")
	}
	rest = rest[sz:]
	arity, sz := binary.Uvarint(rest)
	if sz <= 0 || arity > uint64(len(rest)) {
		return ChangeRecord{}, nil, fmt.Errorf("relation: truncated change tuple arity")
	}
	rest = rest[sz:]
	t := d.tuple(int(arity))
	for j := range t {
		var err error
		if t[j], rest, err = decodeValue(rest); err != nil {
			return ChangeRecord{}, nil, err
		}
	}
	rec.Ver, rec.Rows, rec.Tuple = ver, int(rows), t
	return rec, rest, nil
}

// tuple returns room for one tuple of the given arity.
func (d *ChangeLogDecoder) tuple(arity int) Tuple {
	if arity == 0 || d.records <= 0 {
		return make(Tuple, arity)
	}
	if len(d.block) < arity {
		rows := min(d.records, d.bytes/(1+minValueBytes*arity))
		d.block = make([]Value, max(rows, 1)*arity)
	}
	t := Tuple(d.block[:arity:arity])
	d.block = d.block[arity:]
	return t
}

// SubPlanTerm is one argument slot of a shipped sub-plan atom: either a
// variable (joined by name across atoms and bindings) or a constant
// value the serving side must match exactly.
type SubPlanTerm struct {
	// IsVar distinguishes variables from constants.
	IsVar bool
	// Var is the variable name (IsVar true).
	Var string
	// Const is the constant value (IsVar false).
	Const Value
}

// SubPlanAtom is one conjunct of a shipped sub-plan: a relation name at
// the serving peer plus its argument terms.
type SubPlanAtom struct {
	// Pred is the relation's unqualified name at the serving peer.
	Pred string
	// Args are the atom's argument terms, one per attribute.
	Args []SubPlanTerm
}

// SubPlanBinding carries the distinct values a coordinator has already
// produced locally for one variable — the semi-join half of plan
// shipping. The serving side joins each binding against the atoms, so
// only tuples matching at least one forwarded value cross the wire
// back.
type SubPlanBinding struct {
	// Var is the variable the values bind.
	Var string
	// Values is the distinct value set (order carries no meaning).
	Values []Value
}

// SubPlan is a conjunctive query shipped to a serving peer for remote
// execution: the payload of a Query request (transport op 5). The
// serving side compiles the atoms (restricted by the bindings) against
// its own relations and streams back only the distinct head tuples —
// O(answers) bytes instead of the O(relation) bytes a mirror scan
// moves.
type SubPlan struct {
	// HeadVars are the variables of the result tuples, in order. Every
	// head variable must occur in some atom.
	HeadVars []string
	// Atoms are the conjuncts, all over relations of one serving peer.
	Atoms []SubPlanAtom
	// Bindings are per-variable distinct value sets forwarded from the
	// coordinator (may be empty).
	Bindings []SubPlanBinding
	// RowBudget caps the distinct answers the serving side may stream
	// (0 = unlimited). Exceeding it is an ErrCodeRowBudget error, not a
	// truncation: a budget overflow means the coordinator should mirror
	// instead, never silently drop answers.
	RowBudget uint64
}

// EncodeSubPlan renders a sub-plan as the trailing section of a Query
// request payload: head variables, atoms (terms as a var/const tag byte
// plus name or value), bindings, and the row budget.
func EncodeSubPlan(sp SubPlan) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(sp.HeadVars)))
	for _, v := range sp.HeadVars {
		buf = appendString(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(sp.Atoms)))
	for _, a := range sp.Atoms {
		buf = appendString(buf, a.Pred)
		buf = binary.AppendUvarint(buf, uint64(len(a.Args)))
		for _, t := range a.Args {
			if t.IsVar {
				buf = append(buf, 1)
				buf = appendString(buf, t.Var)
			} else {
				buf = append(buf, 0)
				buf = appendValue(buf, t.Const)
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(sp.Bindings)))
	for _, b := range sp.Bindings {
		buf = appendString(buf, b.Var)
		buf = binary.AppendUvarint(buf, uint64(len(b.Values)))
		for _, v := range b.Values {
			buf = appendValue(buf, v)
		}
	}
	return binary.AppendUvarint(buf, sp.RowBudget)
}

// DecodeSubPlan parses an encoded sub-plan, rejecting trailing bytes.
// Like every decoder in this file it bounds-checks all counts before
// allocating, so corrupt or hostile payloads fail with an error, never
// a panic or an outsized allocation.
func DecodeSubPlan(payload []byte) (SubPlan, error) {
	var sp SubPlan
	nh, sz := binary.Uvarint(payload)
	if sz <= 0 || nh > uint64(len(payload)) {
		return SubPlan{}, fmt.Errorf("relation: truncated subplan head count")
	}
	rest := payload[sz:]
	var err error
	if nh > 0 {
		sp.HeadVars = make([]string, 0, capAlloc(nh))
		for i := uint64(0); i < nh; i++ {
			var v string
			v, rest, err = decodeString(rest)
			if err != nil {
				return SubPlan{}, err
			}
			sp.HeadVars = append(sp.HeadVars, v)
		}
	}
	na, sz := binary.Uvarint(rest)
	if sz <= 0 || na > uint64(len(rest)) {
		return SubPlan{}, fmt.Errorf("relation: truncated subplan atom count")
	}
	rest = rest[sz:]
	sp.Atoms = make([]SubPlanAtom, 0, capAlloc(na))
	for i := uint64(0); i < na; i++ {
		var a SubPlanAtom
		a.Pred, rest, err = decodeString(rest)
		if err != nil {
			return SubPlan{}, err
		}
		arity, sz := binary.Uvarint(rest)
		if sz <= 0 || arity > uint64(len(rest)) {
			return SubPlan{}, fmt.Errorf("relation: truncated subplan atom arity")
		}
		rest = rest[sz:]
		a.Args = make([]SubPlanTerm, 0, capAlloc(arity))
		for j := uint64(0); j < arity; j++ {
			if len(rest) < 1 {
				return SubPlan{}, fmt.Errorf("relation: truncated subplan term tag")
			}
			tag := rest[0]
			rest = rest[1:]
			var t SubPlanTerm
			switch tag {
			case 1:
				t.IsVar = true
				t.Var, rest, err = decodeString(rest)
			case 0:
				t.Const, rest, err = decodeValue(rest)
			default:
				return SubPlan{}, fmt.Errorf("relation: unknown subplan term tag %d", tag)
			}
			if err != nil {
				return SubPlan{}, err
			}
			a.Args = append(a.Args, t)
		}
		sp.Atoms = append(sp.Atoms, a)
	}
	nb, sz := binary.Uvarint(rest)
	if sz <= 0 || nb > uint64(len(rest)) {
		return SubPlan{}, fmt.Errorf("relation: truncated subplan binding count")
	}
	rest = rest[sz:]
	if nb > 0 {
		sp.Bindings = make([]SubPlanBinding, 0, capAlloc(nb))
		for i := uint64(0); i < nb; i++ {
			var b SubPlanBinding
			b.Var, rest, err = decodeString(rest)
			if err != nil {
				return SubPlan{}, err
			}
			nv, sz := binary.Uvarint(rest)
			if sz <= 0 || nv > uint64(len(rest)) {
				return SubPlan{}, fmt.Errorf("relation: truncated subplan binding count")
			}
			rest = rest[sz:]
			b.Values = make([]Value, 0, capAlloc(nv))
			for j := uint64(0); j < nv; j++ {
				var v Value
				v, rest, err = decodeValue(rest)
				if err != nil {
					return SubPlan{}, err
				}
				b.Values = append(b.Values, v)
			}
			sp.Bindings = append(sp.Bindings, b)
		}
	}
	sp.RowBudget, sz = binary.Uvarint(rest)
	if sz <= 0 {
		return SubPlan{}, fmt.Errorf("relation: truncated subplan row budget")
	}
	if len(rest[sz:]) != 0 {
		return SubPlan{}, fmt.Errorf("relation: %d trailing bytes after subplan", len(rest[sz:]))
	}
	return sp, nil
}

// RelVersion pairs a relation name with the mutation version a
// subscriber has already applied — one entry of a Subscribe request's
// since-list. The serving side preloads catch-up change records for
// every listed relation its durable log still covers; relations it
// cannot cover (or does not know) simply start streaming from the
// subscription point, and the acknowledging stats frame tells the
// subscriber which replicas are stale and must heal through the poll
// path.
type RelVersion struct {
	// Rel is the relation's unqualified name at the serving peer.
	Rel string
	// Ver is the relation's mutation version the subscriber last
	// applied.
	Ver uint64
}

// EncodeSubscribeSince renders a Subscribe request's since-list as the
// trailing section of the request payload: an entry count, then per
// entry the relation name and applied version. Callers sort entries by
// relation name so the encoding — and anything fingerprinted on it —
// is deterministic.
func EncodeSubscribeSince(since []RelVersion) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(since)))
	for _, rv := range since {
		buf = appendString(buf, rv.Rel)
		buf = binary.AppendUvarint(buf, rv.Ver)
	}
	return buf
}

// DecodeSubscribeSince parses a Subscribe since-list, rejecting
// trailing bytes. Like every decoder in this file it bounds-checks the
// count before allocating, so corrupt or hostile payloads fail with an
// error, never a panic or an outsized allocation.
func DecodeSubscribeSince(payload []byte) ([]RelVersion, error) {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 || n > uint64(len(payload)) {
		return nil, fmt.Errorf("relation: truncated subscribe since count")
	}
	rest := payload[sz:]
	since := make([]RelVersion, 0, capAlloc(n))
	for i := uint64(0); i < n; i++ {
		var rv RelVersion
		var err error
		rv.Rel, rest, err = decodeString(rest)
		if err != nil {
			return nil, err
		}
		rv.Ver, sz = binary.Uvarint(rest)
		if sz <= 0 {
			return nil, fmt.Errorf("relation: truncated subscribe since version")
		}
		rest = rest[sz:]
		since = append(since, rv)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("relation: %d trailing bytes after subscribe since list", len(rest))
	}
	return since, nil
}

// capAlloc caps a pre-allocation count: counts are attacker-controlled
// until proven by actual payload bytes.
func capAlloc(n uint64) uint64 {
	if n > 4096 {
		return 4096
	}
	return n
}

// DecodeError parses a FrameError payload into a *WireError.
func DecodeError(payload []byte) (*WireError, error) {
	code, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return nil, fmt.Errorf("relation: truncated error code")
	}
	msg, _, err := decodeString(payload[sz:])
	if err != nil {
		return nil, err
	}
	return &WireError{Code: code, Message: msg}, nil
}
