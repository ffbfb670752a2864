//go:build race

package exact

// raceEnabled reports whether the test binary runs under -race.
const raceEnabled = true
