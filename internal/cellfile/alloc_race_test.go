//go:build race

package cellfile

// raceDetector reports a -race build, where sync.Pool drops items at
// random and allocation counts stop being deterministic.
const raceDetector = true
