// Package recno implements record-number access: fixed and variable
// length records addressed by record number. It is a standalone
// package; db's one access method is hash, and nothing in db reaches
// this one.
//
// As in the 4.4BSD implementation, a recno file is a flat file: variable
// length records are delimited by a byte value (bval, default '\n', so a
// plain text file is a recno database of its lines), fixed length
// records are stored back to back, padded with bval. Records are read
// into memory at open and written back on sync — recno is the in-memory
// access method of the family, with the flat file as its durable form.
// Record numbers are zero-based here (the C library was one-based) and
// deleting a record renumbers those after it.
package recno

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Errors returned by File operations.
var (
	ErrNotFound  = errors.New("recno: record number out of range")
	ErrReadOnly  = errors.New("recno: file is read-only")
	ErrClosed    = errors.New("recno: file is closed")
	ErrBadReclen = errors.New("recno: record does not match the fixed record length")
	ErrHasBval   = errors.New("recno: variable-length record contains the delimiter byte")
)

// Options parameterizes Open.
type Options struct {
	// Reclen, when nonzero, selects fixed-length records of that size;
	// shorter records are padded with Bval on storage. Zero selects
	// variable-length (delimited) records.
	Reclen int
	// Bval is the delimiter (variable) or pad (fixed) byte. Default '\n'.
	Bval byte
	// ReadOnly opens for reading only.
	ReadOnly bool
}

// Validate checks the option fields without applying defaults: a zero
// value means "use the default" and always passes. It reports the first
// offending field by name.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	if o.Reclen < 0 {
		return fmt.Errorf("Reclen: %d must not be negative", o.Reclen)
	}
	return nil
}

// File is an open recno database.
type File struct {
	mu sync.Mutex

	path     string
	reclen   int
	bval     byte
	readonly bool
	closed   bool
	dirty    bool

	recs [][]byte

	// Operation counters for FileStats. Every operation holds mu, so
	// plain fields suffice.
	nGets, nGetMisses, nPuts, nDels, nSyncs int64
}

// Open opens or creates the recno file at path. An empty path keeps the
// records purely in memory (Sync is then a no-op).
func Open(path string, o *Options) (*File, error) {
	var opts Options
	if o != nil {
		opts = *o
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("recno: invalid option %w", err)
	}
	if opts.Bval == 0 {
		opts.Bval = '\n'
	}
	f := &File{path: path, reclen: opts.Reclen, bval: opts.Bval, readonly: opts.ReadOnly}
	if path == "" {
		if opts.ReadOnly {
			return nil, errors.New("recno: read-only memory file would always be empty")
		}
		return f, nil
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if opts.ReadOnly {
			return nil, err
		}
		return f, nil
	}
	if err != nil {
		return nil, err
	}
	if err := f.parse(raw); err != nil {
		return nil, err
	}
	return f, nil
}

// parse splits the flat file into records.
func (f *File) parse(raw []byte) error {
	if f.reclen > 0 {
		if len(raw)%f.reclen != 0 {
			return fmt.Errorf("recno: %s: %d bytes is not a multiple of the record length %d",
				f.path, len(raw), f.reclen)
		}
		for off := 0; off < len(raw); off += f.reclen {
			rec := make([]byte, f.reclen)
			copy(rec, raw[off:off+f.reclen])
			f.recs = append(f.recs, rec)
		}
		return nil
	}
	if len(raw) == 0 {
		return nil
	}
	// Variable: split on bval; a trailing delimiter ends the last
	// record (a file without one still yields its final record, as the
	// C library behaved).
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, f.bval)
		if i < 0 {
			f.recs = append(f.recs, append([]byte(nil), raw...))
			break
		}
		f.recs = append(f.recs, append([]byte(nil), raw[:i]...))
		raw = raw[i+1:]
	}
	return nil
}

func (f *File) checkWritable() error {
	if f.closed {
		return ErrClosed
	}
	if f.readonly {
		return ErrReadOnly
	}
	return nil
}

// normalize validates and (for fixed mode) pads a record.
func (f *File) normalize(rec []byte) ([]byte, error) {
	if f.reclen > 0 {
		if len(rec) > f.reclen {
			return nil, fmt.Errorf("%w: %d > %d", ErrBadReclen, len(rec), f.reclen)
		}
		out := make([]byte, f.reclen)
		n := copy(out, rec)
		for i := n; i < f.reclen; i++ {
			out[i] = f.bval
		}
		return out, nil
	}
	if bytes.IndexByte(rec, f.bval) >= 0 {
		return nil, ErrHasBval
	}
	return append([]byte(nil), rec...), nil
}

// Len returns the number of records.
func (f *File) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.recs)
}

// Get returns a copy of record i.
func (f *File) Get(i int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	f.nGets++
	if i < 0 || i >= len(f.recs) {
		f.nGetMisses++
		return nil, fmt.Errorf("%w: %d of %d", ErrNotFound, i, len(f.recs))
	}
	return append([]byte(nil), f.recs[i]...), nil
}

// Put replaces record i, or appends when i equals the record count.
func (f *File) Put(i int, rec []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkWritable(); err != nil {
		return err
	}
	if i < 0 || i > len(f.recs) {
		return fmt.Errorf("%w: %d of %d", ErrNotFound, i, len(f.recs))
	}
	norm, err := f.normalize(rec)
	if err != nil {
		return err
	}
	f.nPuts++
	if i == len(f.recs) {
		f.recs = append(f.recs, norm)
	} else {
		f.recs[i] = norm
	}
	f.dirty = true
	return nil
}

// Append adds a record at the end and returns its number.
func (f *File) Append(rec []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkWritable(); err != nil {
		return 0, err
	}
	norm, err := f.normalize(rec)
	if err != nil {
		return 0, err
	}
	f.nPuts++
	f.recs = append(f.recs, norm)
	f.dirty = true
	return len(f.recs) - 1, nil
}

// Insert places a record at position i, shifting later records up (they
// are renumbered).
func (f *File) Insert(i int, rec []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkWritable(); err != nil {
		return err
	}
	if i < 0 || i > len(f.recs) {
		return fmt.Errorf("%w: %d of %d", ErrNotFound, i, len(f.recs))
	}
	norm, err := f.normalize(rec)
	if err != nil {
		return err
	}
	f.recs = append(f.recs, nil)
	copy(f.recs[i+1:], f.recs[i:])
	f.recs[i] = norm
	f.dirty = true
	return nil
}

// Delete removes record i; later records are renumbered.
func (f *File) Delete(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkWritable(); err != nil {
		return err
	}
	if i < 0 || i >= len(f.recs) {
		return fmt.Errorf("%w: %d of %d", ErrNotFound, i, len(f.recs))
	}
	f.nDels++
	f.recs = append(f.recs[:i], f.recs[i+1:]...)
	f.dirty = true
	return nil
}

// ForEach visits records in order.
func (f *File) ForEach(fn func(i int, rec []byte) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, r := range f.recs {
		if !fn(i, r) {
			return
		}
	}
}

// Sync writes the flat file back to disk.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.readonly || f.path == "" || !f.dirty {
		return nil
	}
	return f.syncLocked()
}

func (f *File) syncLocked() error {
	var buf bytes.Buffer
	for _, r := range f.recs {
		buf.Write(r)
		if f.reclen == 0 {
			buf.WriteByte(f.bval)
		}
	}
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		os.Remove(tmp)
		return err
	}
	f.dirty = false
	f.nSyncs++
	return nil
}

// FileStats reports the file's shape and operation counts.
type FileStats struct {
	Records   int64
	Bytes     int64 // total record payload bytes held in memory
	Reclen    int   // 0 = variable-length records
	Bval      byte
	Gets      int64
	GetMisses int64
	Puts      int64
	Deletes   int64
	Syncs     int64
}

// Stats reports the file's statistics; a closed file returns ErrClosed.
func (f *File) Stats() (FileStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return FileStats{}, ErrClosed
	}
	s := FileStats{
		Records: int64(len(f.recs)), Reclen: f.reclen, Bval: f.bval,
		Gets: f.nGets, GetMisses: f.nGetMisses, Puts: f.nPuts,
		Deletes: f.nDels, Syncs: f.nSyncs,
	}
	for _, r := range f.recs {
		s.Bytes += int64(len(r))
	}
	return s, nil
}

// Close syncs (when writable and file-backed) and closes.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	var err error
	if !f.readonly && f.path != "" && f.dirty {
		err = f.syncLocked()
	}
	f.closed = true
	return err
}
