package wal

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Device is the byte-granular append target a Log writes to. Unlike the
// page stores in internal/pagefile, a log device is addressed in bytes:
// records are variable-length and always appended at the tail, so the
// natural device contract is positioned read/write plus truncate. All
// implementations must be safe for concurrent use.
type Device interface {
	// ReadAt fills p from offset off, returning io.EOF semantics like
	// io.ReaderAt.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes p at offset off, extending the device if needed.
	WriteAt(p []byte, off int64) (int, error)
	// Size reports the current device length in bytes.
	Size() (int64, error)
	// Truncate cuts (or zero-extends) the device to size bytes.
	Truncate(size int64) error
	// Sync forces written bytes, and the length they set, to stable
	// storage; other metadata may lag (a FileDevice uses fdatasync).
	Sync() error
	// Close releases the device.
	Close() error
}

// ---------------------------------------------------------------------------
// FileDevice

// growChunk is the step in which a FileDevice zero-fills its file ahead of
// the appends: a commit's fdatasync overwrites blocks the file holds, and
// only every ~600th persists a new size. Not fallocate: a first write into
// an unwritten extent journals its conversion.
const growChunk = 256 << 10

var zeroChunk [growChunk]byte

// FileDevice is a Device backed by an operating-system file — the
// table's sibling ".wal" file in the normal configuration.
type FileDevice struct {
	mu     sync.Mutex
	f      *os.File
	zeroed int64 // file size; bytes past the last write are zero
	closed bool
}

// OpenFileDevice opens (creating if necessary) the log file at path.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileDevice{f: f, zeroed: fi.Size()}, nil
}

func (d *FileDevice) checkOpen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return os.ErrClosed
	}
	return nil
}

// ReadAt implements Device.
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) {
	if err := d.checkOpen(); err != nil {
		return 0, err
	}
	return d.f.ReadAt(p, off)
}

// WriteAt implements Device: a write past the end of the file, except
// Reset's header at offset 0, first zero-fills to the next growChunk
// boundary. A closed file reports os.ErrClosed, here and in Truncate.
func (d *FileDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for off > 0 && d.zeroed < off+int64(len(p)) {
		n := growChunk - d.zeroed%growChunk
		if _, err := d.f.WriteAt(zeroChunk[:n], d.zeroed); err != nil {
			return 0, err
		}
		d.zeroed += n
	}
	n, err := d.f.WriteAt(p, off)
	d.zeroed = max(d.zeroed, off+int64(n))
	return n, err
}

// Size implements Device.
func (d *FileDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, os.ErrClosed
	}
	return d.zeroed, nil
}

// Truncate implements Device; a later write past size zero-fills again.
func (d *FileDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.f.Truncate(size)
	if err == nil {
		d.zeroed = size
	}
	return err
}

// Sync implements Device with fdatasync where the platform has it.
func (d *FileDevice) Sync() error {
	if err := d.checkOpen(); err != nil {
		return err
	}
	return datasync(d.f)
}

// Close implements Device. The file is synced first, mirroring the page
// stores' close contract.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	err := d.f.Sync()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// MemDevice

// MemDevice is a Device kept entirely in memory, used by memory-resident
// tables, benchmarks and tests. The buffer grows with append's amortised
// doubling, so a long run of tail appends copies O(n) bytes in total
// rather than the whole log on every write.
type MemDevice struct {
	mu  sync.Mutex
	buf []byte
}

// NewMemDevice creates an empty in-memory log device.
func NewMemDevice() *MemDevice { return &MemDevice{} }

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("wal: negative read offset %d", off)
	}
	if off >= int64(len(d.buf)) {
		return 0, io.EOF
	}
	n := copy(p, d.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("wal: negative write offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(d.buf)) {
		d.resize(end)
	}
	copy(d.buf[off:end], p)
	return len(p), nil
}

// resize sets the length to size, zero-filling any bytes it exposes (a
// Truncate may have left stale data between len and cap). Caller holds mu.
func (d *MemDevice) resize(size int64) {
	old := len(d.buf)
	if size > int64(cap(d.buf)) {
		d.buf = append(d.buf, make([]byte, size-int64(old))...)
		return
	}
	d.buf = d.buf[:size]
	if int(size) > old {
		clear(d.buf[old:])
	}
}

// Size implements Device.
func (d *MemDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.buf)), nil
}

// Truncate implements Device.
func (d *MemDevice) Truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("wal: negative truncate size %d", size)
	}
	d.resize(size)
	return nil
}

// Sync implements Device (a memory device has nothing to flush).
func (d *MemDevice) Sync() error { return nil }

// Close implements Device.
func (d *MemDevice) Close() error { return nil }

// Bytes returns a copy of the device contents, for tests.
func (d *MemDevice) Bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]byte, len(d.buf))
	copy(out, d.buf)
	return out
}

var (
	_ Device = (*FileDevice)(nil)
	_ Device = (*MemDevice)(nil)
)
