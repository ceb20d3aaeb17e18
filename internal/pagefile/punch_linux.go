package pagefile

import "syscall"

// fallocate(2) mode bits, from linux/falloc.h.
const fallocKeepSize, fallocPunchHole = 0x1, 0x2

// punchHole deallocates bytes [off, off+n) of file fd and keeps its
// length. A file system without hole support keeps the blocks, which is
// not an error.
func punchHole(fd uintptr, off, n int64) error {
	var err error = syscall.EINTR
	for err == syscall.EINTR {
		err = syscall.Fallocate(int(fd), fallocPunchHole|fallocKeepSize, off, n)
	}
	if err == syscall.EOPNOTSUPP {
		return nil
	}
	return err
}
