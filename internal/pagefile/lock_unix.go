//go:build unix

package pagefile

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// ErrLocked, wrapped with the path of what is held, reports a conflicting lock.
var ErrLocked = errors.New("locked by another process")

// Lock takes Flock on the store's file.
func (fs *FileStore) Lock(exclusive bool) error { return Flock(fs.f, fs.f.Name(), exclusive) }

// Flock takes a non-blocking advisory lock on f: exclusive for a writer,
// shared for readers (the paper's "multi-user access"). A conflicting
// holder yields ErrLocked wrapped with name. Closing f releases it.
func Flock(f *os.File, name string, exclusive bool) error {
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	err := syscall.Flock(int(f.Fd()), how|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return fmt.Errorf("%s: %w", name, ErrLocked)
	}
	if err != nil {
		return fmt.Errorf("pagefile: flock %s: %w", name, err)
	}
	return nil
}
