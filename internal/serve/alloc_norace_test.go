//go:build !race

package serve

// raceDetector reports a -race build (see alloc_race_test.go).
const raceDetector = false
