package cq

import "repro/internal/relation"

// Catalog is the scan-source surface the engine needs from storage:
// resolving a predicate name to the stored relation its atom scans read.
// *relation.Database satisfies it directly; anything else that can hand
// back materialized relations — a qualified global snapshot, a cache of
// remote-peer replicas, an overlay combining the two — plugs into
// Compile and the reference evaluator without the engine knowing where
// the tuples came from.
type Catalog interface {
	// Get returns the named relation, or nil when the catalog has none.
	Get(name string) *relation.Relation
}

// compile-time proof that the concrete database is a Catalog.
var _ Catalog = (*relation.Database)(nil)

// Overlay is a Catalog whose Over relations shadow Base's by name: a
// request's shipped partial replicas over the global snapshot, or a
// view delta installed beside the database it joins against.
type Overlay struct {
	Base Catalog
	Over map[string]*relation.Relation
}

// Get implements Catalog.
func (o Overlay) Get(name string) *relation.Relation {
	if r := o.Over[name]; r != nil {
		return r
	}
	return o.Base.Get(name)
}
