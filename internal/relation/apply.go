package relation

import "fmt"

// ApplyChanges advances the relation by a run of data change records —
// the one verified apply behind push replication, delta catch-up and
// write-ahead-log replay — and returns the relation holding the result.
// The relation's own (Version, Len) is the fingerprint the run must
// start from: every record must name this relation, carry a version
// strictly past the one before it, and leave exactly the row count it
// says, and the result's version is the last record's. Anything else is
// an error, and an error leaves the relation exactly as it was.
//
// That all-or-nothing guarantee costs O(records), not O(rows), for a run
// of inserts: relation name, version order, row counts and schema
// compatibility are all decidable from the records, so the run is
// checked first and then appended in place as one InsertBatch (the
// result is r itself; a one-record run allocates what Insert does). A
// run containing a delete cannot be checked without applying it — the
// count a delete leaves depends on the rows — so it is applied to an
// O(arity) snapshot, which the caller puts in r's place only on success;
// the delete's own O(rows) compaction is the only per-row work.
//
// It follows the mutation contract: external synchronization with
// readers of r. Snapshots of r taken earlier are unaffected either way.
func (r *Relation) ApplyChanges(recs []ChangeRecord) (*Relation, error) {
	if len(recs) == 0 {
		return r, nil
	}
	ver, rows, insertOnly := r.version, r.n, true
	for i := range recs {
		rec := &recs[i]
		if rec.Rel != r.Schema.Name {
			return nil, fmt.Errorf("relation: change run for %s carries a record of %s", r.Schema.Name, rec.Rel)
		}
		if rec.Ver <= ver {
			return nil, fmt.Errorf("relation: %s change version %d does not advance past %d", rec.Rel, rec.Ver, ver)
		}
		ver = rec.Ver
		switch rec.Op {
		case ChangeInsert:
			if err := r.Schema.Compatible(rec.Tuple); err != nil {
				return nil, err
			}
			rows++
			if insertOnly && rec.Rows != rows {
				return nil, fmt.Errorf("relation: insert into %s leaves %d rows, record says %d", rec.Rel, rows, rec.Rows)
			}
		case ChangeDelete:
			insertOnly = false
		default:
			return nil, fmt.Errorf("relation: change run for %s carries unexpected op %d", rec.Rel, rec.Op)
		}
	}
	if insertOnly {
		var one [1]Tuple
		ts := one[:0]
		if len(recs) > 1 {
			ts = make([]Tuple, 0, len(recs))
		}
		for i := range recs {
			ts = append(ts, recs[i].Tuple)
		}
		if err := r.InsertBatch(ts); err != nil {
			return nil, err // unreachable: Compatible passed above
		}
		r.RestoreVersion(ver)
		return r, nil
	}
	dst := r.SnapshotAs(r.Schema.Name)
	for i := range recs {
		rec := &recs[i]
		if rec.Op == ChangeInsert {
			if err := dst.Insert(rec.Tuple); err != nil {
				return nil, err // unreachable: Compatible passed above
			}
		} else {
			dst.Delete(rec.Tuple)
		}
		if dst.Len() != rec.Rows {
			return nil, fmt.Errorf("relation: applying to %s left %d rows, record says %d", rec.Rel, dst.Len(), rec.Rows)
		}
	}
	dst.RestoreVersion(ver)
	return dst, nil
}
