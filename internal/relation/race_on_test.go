//go:build race

package relation

// raceEnabled reports whether this test binary was built with the race
// detector; allocation-count tests skip under it.
const raceEnabled = true
