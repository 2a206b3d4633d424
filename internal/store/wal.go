package store

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/relation"
)

// This file is the write-ahead-log half of the store: an append-only
// file of change records, each entry individually length-prefixed and
// checksummed so recovery can tell a cleanly committed record from the
// torn tail a crash mid-append leaves behind. Replay keeps the longest
// valid prefix and truncates the rest — a corrupt or truncated tail is
// detected and discarded, never silently replayed.

// walName is the log's file name within the store directory.
const walName = "wal"

// appendWALEntry appends one log entry to dst and returns the extended
// slice: a uvarint body length, the body (a one-record change batch in
// the FrameDelta encoding), and a big-endian CRC32 (IEEE) of the body.
// The body is encoded after room for the longest length prefix and then
// moved up behind the prefix it turned out to need, so an entry costs no
// buffer beyond dst.
func appendWALEntry(dst []byte, rec relation.ChangeRecord) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, binary.MaxVarintLen64)...)
	one := [1]relation.ChangeRecord{rec}
	dst = relation.AppendChangeBatch(dst, one[:])
	body := dst[start+binary.MaxVarintLen64:]
	sum := crc32.ChecksumIEEE(body)
	p := binary.PutUvarint(dst[start:], uint64(len(body)))
	dst = append(dst[:start+p], body...)
	return binary.BigEndian.AppendUint32(dst, sum)
}

// scanWAL walks a log image, returning every cleanly committed record
// plus the byte offset where the valid prefix ends. A short length
// prefix, short body, checksum mismatch, or undecodable body marks the
// start of the discarded tail; bytes past it are never inspected. A
// first pass over the entries' framing sizes the record slice and the
// one value block every record's tuple is decoded into.
func scanWAL(img []byte) (recs []relation.ChangeRecord, good int64) {
	n := 0
	for _, next, ok := walEntry(img, 0); ok; _, next, ok = walEntry(img, next) {
		n++
	}
	recs = make([]relation.ChangeRecord, 0, n)
	dec := relation.NewChangeLogDecoder(n, len(img))
	off := 0
	for {
		body, next, ok := walEntry(img, off)
		if !ok || crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(img[next-4:]) {
			return recs, int64(off)
		}
		rec, err := dec.Decode(body)
		if err != nil {
			return recs, int64(off)
		}
		recs = append(recs, rec)
		off = next
	}
}

// walEntry frames the log entry at off: its body, and the offset past
// its checksum, where the next entry starts. ok is false at the end of
// the image and wherever the length prefix, body or checksum runs past
// it.
func walEntry(img []byte, off int) (body []byte, next int, ok bool) {
	ln, sz := binary.Uvarint(img[off:])
	if sz <= 0 || ln > uint64(len(img)-off-sz) || uint64(len(img)-off-sz)-ln < 4 {
		return nil, off, false
	}
	body = img[off+sz : off+sz+int(ln)]
	return body, off + sz + int(ln) + 4, true
}
