//go:build race

package core

// raceEnabled reports a race-detector build, where sync.Pool drops a
// random share of what it is given, so pooled scratch is reallocated
// and allocation counts say nothing.
const raceEnabled = true
