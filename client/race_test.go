//go:build race

package client

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = true
