//go:build race

package cq

// raceEnabled reports whether this test binary was built with the race
// detector; allocation-count tests skip under it.
const raceEnabled = true
