//go:build !linux

package wal

import "os"

// datasync is (*os.File).Sync where fdatasync(2) is not available.
func datasync(f *os.File) error { return f.Sync() }
