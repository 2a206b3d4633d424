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

// encodeWALEntry renders one log entry: a uvarint body length, the body
// (a one-record change batch in the FrameDelta encoding), and a
// big-endian CRC32 (IEEE) of the body.
func encodeWALEntry(rec relation.ChangeRecord) []byte {
	body := relation.EncodeChangeBatch([]relation.ChangeRecord{rec})
	buf := binary.AppendUvarint(nil, uint64(len(body)))
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
}

// scanWAL walks a log image, returning every cleanly committed record
// plus the byte offset where the valid prefix ends. A short length
// prefix, short body, checksum mismatch, or undecodable body marks the
// start of the discarded tail; bytes past it are never inspected.
func scanWAL(img []byte) (recs []relation.ChangeRecord, good int64) {
	off := 0
	for off < len(img) {
		ln, sz := binary.Uvarint(img[off:])
		if sz <= 0 || ln > uint64(len(img)-off-sz) || uint64(len(img)-off-sz)-ln < 4 {
			return recs, int64(off)
		}
		body := img[off+sz : off+sz+int(ln)]
		sum := binary.BigEndian.Uint32(img[off+sz+int(ln):])
		if crc32.ChecksumIEEE(body) != sum {
			return recs, int64(off)
		}
		batch, err := relation.DecodeChangeBatch(body)
		if err != nil || len(batch) != 1 {
			return recs, int64(off)
		}
		recs = append(recs, batch[0])
		off += sz + int(ln) + 4
	}
	return recs, int64(off)
}
