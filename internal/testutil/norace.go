//go:build !race

package testutil

// RaceEnabled reports whether the race detector is compiled in. It
// inflates allocation counts, so testing.AllocsPerRun gates skip
// under it.
const RaceEnabled = false
