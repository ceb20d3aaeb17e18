package wal

import (
	"os"
	"syscall"
)

// datasync is fdatasync(2), retried on EINTR as (*os.File).Sync is. It
// skips timestamps: a sync over blocks the file holds journals nothing.
func datasync(f *os.File) error {
	var err error = syscall.EINTR
	for err == syscall.EINTR {
		err = syscall.Fdatasync(int(f.Fd()))
	}
	return os.NewSyscallError("fdatasync", err)
}
