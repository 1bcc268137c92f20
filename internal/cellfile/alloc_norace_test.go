//go:build !race

package cellfile

// raceDetector reports a -race build (see alloc_race_test.go).
const raceDetector = false
