//go:build !race

package pipeline

// raceDetectorEnabled reports a -race build, whose instrumentation
// changes what allocates: exact testing.AllocsPerRun assertions are
// skipped there.
const raceDetectorEnabled = false
