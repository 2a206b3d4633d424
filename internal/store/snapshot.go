package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/relation"
)

// This file is the snapshot half of the store: a versioned, checksummed
// one-file encoding of a relation.Database plus the peer's schema
// version, written atomically (temp file + fsync + rename) so a crash
// mid-checkpoint leaves the previous snapshot untouched. The payload
// reuses the self-describing wire codecs of internal/relation — the
// file format and the network format are the same bytes, so one set of
// codec tests covers both.

// snapshotMagic opens every snapshot file.
var snapshotMagic = [4]byte{'R', 'V', 'S', 'S'}

// snapshotFormat is the snapshot format version this build writes. A
// reader finding a different version refuses loudly rather than
// guessing at the layout.
const snapshotFormat = 1

// snapshotName is the committed snapshot's file name within the store
// directory; snapshotTmpPattern names the temp files checkpoints build
// before the atomic rename (leftovers from a crashed checkpoint are
// removed at Open).
const (
	snapshotName       = "snapshot"
	snapshotTmpPattern = "snapshot.tmp-*"
)

// snapshotBatch is how many tuples each embedded tuple-batch chunk
// holds — the same granularity transports stream at, so corruption is
// localized and no single length prefix spans the whole relation.
const snapshotBatch = 256

// encodeSnapshot renders the full snapshot byte image: magic, format
// version, schema version, relation count, then per relation (in name
// order) a length-prefixed schema encoding, its (version, rows)
// fingerprint, and its tuples in length-prefixed batch chunks; the
// trailer is a big-endian CRC32 (IEEE) of everything before it.
func encodeSnapshot(schemaVer uint64, db *relation.Database) []byte {
	buf := append([]byte(nil), snapshotMagic[:]...)
	buf = binary.AppendUvarint(buf, snapshotFormat)
	buf = binary.AppendUvarint(buf, schemaVer)
	rels := db.Relations()
	buf = binary.AppendUvarint(buf, uint64(len(rels)))
	for _, r := range rels {
		enc := relation.EncodeSchema(r.Schema)
		buf = binary.AppendUvarint(buf, uint64(len(enc)))
		buf = append(buf, enc...)
		buf = binary.AppendUvarint(buf, r.Version())
		rows := r.Rows()
		buf = binary.AppendUvarint(buf, uint64(len(rows)))
		for len(rows) > 0 {
			n := snapshotBatch
			if n > len(rows) {
				n = len(rows)
			}
			chunk := relation.EncodeTupleBatch(rows[:n])
			buf = binary.AppendUvarint(buf, uint64(len(chunk)))
			buf = append(buf, chunk...)
			rows = rows[n:]
		}
	}
	sum := crc32.ChecksumIEEE(buf)
	return binary.BigEndian.AppendUint32(buf, sum)
}

// writeSnapshot commits a snapshot atomically: the image is written to
// a temp file in the same directory, fsynced, renamed over the
// committed name, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old snapshot or the
// new one — never a partial file under the committed name.
func writeSnapshot(dir string, schemaVer uint64, db *relation.Database) error {
	img := encodeSnapshot(schemaVer, db)
	f, err := os.CreateTemp(dir, snapshotTmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(img); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-committed rename survives a
// machine crash, not only a process crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readSnapshot loads and verifies the committed snapshot, returning the
// database, the peer schema version, the per-relation versions at
// snapshot time, and the total row count. A missing file returns an
// empty database (a fresh store); any checksum or decode failure is a
// hard error — the atomic commit means a bad snapshot is real damage,
// never a torn write, and recovery must not serve wrong data silently.
func readSnapshot(dir string) (db *relation.Database, schemaVer uint64, base map[string]uint64, rows int, err error) {
	img, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return relation.NewDatabase(), 0, map[string]uint64{}, 0, nil
	}
	if err != nil {
		return nil, 0, nil, 0, err
	}
	if len(img) < len(snapshotMagic)+4 || !bytes.Equal(img[:4], snapshotMagic[:]) {
		return nil, 0, nil, 0, fmt.Errorf("store: bad snapshot magic")
	}
	body, trailer := img[:len(img)-4], img[len(img)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(trailer); got != want {
		return nil, 0, nil, 0, fmt.Errorf("store: snapshot checksum mismatch: %08x, want %08x", got, want)
	}
	rest := body[4:]
	format, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return nil, 0, nil, 0, fmt.Errorf("store: truncated snapshot format version")
	}
	if format != snapshotFormat {
		return nil, 0, nil, 0, fmt.Errorf("store: snapshot format %d, want %d", format, snapshotFormat)
	}
	rest = rest[sz:]
	schemaVer, sz = binary.Uvarint(rest)
	if sz <= 0 {
		return nil, 0, nil, 0, fmt.Errorf("store: truncated snapshot schema version")
	}
	rest = rest[sz:]
	nRels, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return nil, 0, nil, 0, fmt.Errorf("store: truncated snapshot relation count")
	}
	rest = rest[sz:]
	db = relation.NewDatabase()
	base = make(map[string]uint64, nRels)
	for i := uint64(0); i < nRels; i++ {
		ln, sz := binary.Uvarint(rest)
		if sz <= 0 || ln > uint64(len(rest)-sz) {
			return nil, 0, nil, 0, fmt.Errorf("store: truncated snapshot schema")
		}
		schema, err := relation.DecodeSchema(rest[sz : sz+int(ln)])
		if err != nil {
			return nil, 0, nil, 0, err
		}
		rest = rest[sz+int(ln):]
		ver, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return nil, 0, nil, 0, fmt.Errorf("store: truncated snapshot relation version")
		}
		rest = rest[sz:]
		want, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return nil, 0, nil, 0, fmt.Errorf("store: truncated snapshot row count")
		}
		rest = rest[sz:]
		// want is the file's claim: it sizes nothing beyond the bytes
		// left, since every tuple takes at least one.
		tuples := make([]relation.Tuple, 0, min(want, uint64(len(rest))))
		for uint64(len(tuples)) < want && len(rest) > 0 {
			cln, sz := binary.Uvarint(rest)
			if sz <= 0 || cln > uint64(len(rest)-sz) {
				return nil, 0, nil, 0, fmt.Errorf("store: truncated snapshot tuple chunk")
			}
			batch, err := relation.DecodeTupleBatch(rest[sz : sz+int(cln)])
			if err != nil {
				return nil, 0, nil, 0, err
			}
			rest = rest[sz+int(cln):]
			if len(batch) == 0 {
				return nil, 0, nil, 0, fmt.Errorf("store: empty snapshot tuple chunk before row %d of %s", len(tuples), schema.Name)
			}
			tuples = append(tuples, batch...)
		}
		if uint64(len(tuples)) != want {
			return nil, 0, nil, 0, fmt.Errorf("store: snapshot relation %s has %d rows, header says %d", schema.Name, len(tuples), want)
		}
		r := relation.New(schema)
		if err := r.InsertBatch(tuples); err != nil {
			return nil, 0, nil, 0, err
		}
		r.RestoreVersion(ver)
		db.Put(r)
		base[schema.Name] = ver
		rows += r.Len()
	}
	if len(rest) != 0 {
		return nil, 0, nil, 0, fmt.Errorf("store: %d trailing bytes after snapshot relations", len(rest))
	}
	return db, schemaVer, base, rows, nil
}
