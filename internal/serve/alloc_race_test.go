//go:build race

package serve

// raceDetector reports a -race build, where sync.Pool drops items at
// random and allocation counts stop being deterministic.
const raceDetector = true
