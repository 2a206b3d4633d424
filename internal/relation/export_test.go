package relation

// HasRowImage reports whether r holds its row image: false only while a
// relation DecodeColumns built has had no row read.
func (r *Relation) HasRowImage() bool { return !r.imageless.Load() }

// RaceEnabled reports whether this test binary was built with the race
// detector, for the external test package's allocation counts.
const RaceEnabled = raceEnabled
