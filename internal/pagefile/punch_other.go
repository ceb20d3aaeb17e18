//go:build !linux

package pagefile

// punchHole keeps the blocks: there is no portable hole punch.
func punchHole(uintptr, int64, int64) error { return nil }
