//go:build race

package serve

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
