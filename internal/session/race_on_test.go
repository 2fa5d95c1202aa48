//go:build race

package session

// raceDetector is set when the test binary is built with -race.
const raceDetector = true
