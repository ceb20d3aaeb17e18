// Package gdbm is a clean-room Go port of the gdbm algorithm as the
// paper describes it: extensible hashing (Fagin et al. [FAG79]), in which
// a directory — a collapsed array representation of sdbm's radix search
// trie — holds 2^depth bucket addresses. A hash value indexed by depth
// bits yields a bucket address in one step; multiple directory entries
// may share one bucket, and splitting a bucket whose depth equals the
// directory's doubles the directory.
//
// The database is a singular, non-sparse file (unlike dbm's): a header
// page, bucket pages, and the serialized directory.
package gdbm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"unixhash/internal/dpage"
	"unixhash/internal/hashfunc"
	"unixhash/internal/pagefile"
)

// Errors returned by DB operations.
var (
	ErrNotFound  = errors.New("gdbm: key not found")
	ErrKeyExists = errors.New("gdbm: key already exists")
	ErrTooBig    = errors.New("gdbm: key/data pair exceeds the page size")
	ErrSplit     = errors.New("gdbm: cannot split bucket (too many colliding keys)")
	ErrClosed    = errors.New("gdbm: database is closed")
	ErrCorrupt   = errors.New("gdbm: file is corrupt")
)

// DefaultPageSize is the default bucket size.
const DefaultPageSize = 1024

const (
	gdbmMagic  = 0x67646d31 // "gdm1"
	maxDirBits = 24         // directory up to 16M entries; bounds split loops
)

var le = binary.LittleEndian

// Bucket pages carry their depth in a 4-byte prefix before the slotted
// payload.
const bucketHdr = 4

type bucketPage []byte

func (b bucketPage) depth() int     { return int(le.Uint16(b[0:2])) }
func (b bucketPage) setDepth(d int) { le.PutUint16(b[0:2], uint16(d)) }
func (b bucketPage) data() dpage.Page {
	return dpage.Page(b[bucketHdr:])
}

// Options parameterizes Open.
type Options struct {
	PageSize int
	Store    pagefile.Store
}

// DB is a gdbm database.
type DB struct {
	store    pagefile.Store
	ownStore bool
	pagesize int

	depth    int      // directory depth
	dir      []uint32 // 2^depth bucket page numbers
	nextPage uint32   // file allocation high-water mark
	count    int64

	closed bool
}

// Open opens or creates the database at path (a single file). An empty
// path with opts.Store unset is memory-backed.
func Open(path string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PageSize < 64 {
		return nil, fmt.Errorf("gdbm: page size %d too small", o.PageSize)
	}
	db := &DB{pagesize: o.PageSize}
	switch {
	case o.Store != nil:
		db.store = o.Store
	case path == "":
		db.store = pagefile.NewMem(o.PageSize)
		db.ownStore = true
	default:
		fs, err := pagefile.OpenFile(path, o.PageSize, pagefile.CostModel{})
		if err != nil {
			return nil, err
		}
		db.store = fs
		db.ownStore = true
	}
	if db.store.PageSize() != o.PageSize {
		return nil, fmt.Errorf("gdbm: store page size %d != requested %d", db.store.PageSize(), o.PageSize)
	}
	if db.store.NPages() > 0 {
		if err := db.load(); err != nil {
			if db.ownStore {
				db.store.Close()
			}
			return nil, err
		}
	} else {
		// Fresh database: depth 0, one bucket at page 1.
		db.depth = 0
		db.nextPage = 2
		db.dir = []uint32{1}
		b := db.newBucket(0)
		if err := db.writeBucket(1, b); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) newBucket(depth int) bucketPage {
	b := bucketPage(make([]byte, db.pagesize))
	b.setDepth(depth)
	b.data().Init()
	return b
}

// Header page layout: magic, pagesize, depth, nextPage, count, dirStart,
// dirPages. The directory follows at pages [dirStart, dirStart+dirPages).
func (db *DB) flushMeta() error {
	dirBytes := make([]byte, 4*len(db.dir))
	for i, p := range db.dir {
		le.PutUint32(dirBytes[4*i:], p)
	}
	dirPages := (len(dirBytes) + db.pagesize - 1) / db.pagesize
	if dirPages == 0 {
		dirPages = 1
	}
	dirStart := db.nextPage

	hdr := make([]byte, db.pagesize)
	le.PutUint32(hdr[0:], gdbmMagic)
	le.PutUint32(hdr[4:], uint32(db.pagesize))
	le.PutUint32(hdr[8:], uint32(db.depth))
	le.PutUint32(hdr[12:], db.nextPage)
	le.PutUint64(hdr[16:], uint64(db.count))
	le.PutUint32(hdr[24:], dirStart)
	le.PutUint32(hdr[28:], uint32(dirPages))
	if err := db.store.WritePage(0, hdr); err != nil {
		return err
	}
	buf := make([]byte, db.pagesize)
	for i := 0; i < dirPages; i++ {
		clear(buf)
		lo := i * db.pagesize
		hi := lo + db.pagesize
		if hi > len(dirBytes) {
			hi = len(dirBytes)
		}
		copy(buf, dirBytes[lo:hi])
		if err := db.store.WritePage(dirStart+uint32(i), buf); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) load() error {
	hdr := make([]byte, db.pagesize)
	if err := db.store.ReadPage(0, hdr); err != nil {
		return err
	}
	if le.Uint32(hdr[0:]) != gdbmMagic {
		return ErrCorrupt
	}
	if int(le.Uint32(hdr[4:])) != db.pagesize {
		return fmt.Errorf("%w: page size mismatch", ErrCorrupt)
	}
	db.depth = int(le.Uint32(hdr[8:]))
	db.nextPage = le.Uint32(hdr[12:])
	db.count = int64(le.Uint64(hdr[16:]))
	dirStart := le.Uint32(hdr[24:])
	dirPages := int(le.Uint32(hdr[28:]))
	if db.depth > maxDirBits || db.nextPage == 0 {
		return ErrCorrupt
	}
	n := 1 << uint(db.depth)
	dirBytes := make([]byte, 0, dirPages*db.pagesize)
	buf := make([]byte, db.pagesize)
	for i := 0; i < dirPages; i++ {
		if err := db.store.ReadPage(dirStart+uint32(i), buf); err != nil {
			return err
		}
		dirBytes = append(dirBytes, buf...)
	}
	if len(dirBytes) < 4*n {
		return fmt.Errorf("%w: directory truncated", ErrCorrupt)
	}
	db.dir = make([]uint32, n)
	for i := range db.dir {
		db.dir[i] = le.Uint32(dirBytes[4*i:])
		if db.dir[i] == 0 {
			return fmt.Errorf("%w: directory entry %d is the header page", ErrCorrupt, i)
		}
	}
	return nil
}

func (db *DB) readBucket(pg uint32) (bucketPage, error) {
	buf := make([]byte, db.pagesize)
	if err := db.store.ReadPage(pg, buf); err != nil {
		return nil, err
	}
	b := bucketPage(buf)
	b.data().InitIfNew()
	return b, nil
}

func (db *DB) writeBucket(pg uint32, b bucketPage) error {
	return db.store.WritePage(pg, b)
}

func (db *DB) dirIndex(h uint32) int {
	return int(h & (1<<uint(db.depth) - 1))
}

// Fetch returns a copy of the data stored under key.
func (db *DB) Fetch(key []byte) ([]byte, error) {
	if db.closed {
		return nil, ErrClosed
	}
	b, err := db.readBucket(db.dir[db.dirIndex(hashfunc.Default(key))])
	if err != nil {
		return nil, err
	}
	p := b.data()
	i := p.Find(key)
	if i < 0 {
		return nil, ErrNotFound
	}
	_, data := p.Pair(i)
	return append([]byte(nil), data...), nil
}

// Store inserts key/data, splitting buckets (and doubling the directory
// when a bucket's depth exceeds it) until the pair fits.
func (db *DB) Store(key, data []byte, replace bool) error {
	if db.closed {
		return ErrClosed
	}
	if len(key)+len(data) > dpage.MaxPair(db.pagesize-bucketHdr) {
		return ErrTooBig
	}
	h := hashfunc.Default(key)
	for {
		pg := db.dir[db.dirIndex(h)]
		b, err := db.readBucket(pg)
		if err != nil {
			return err
		}
		p := b.data()
		if i := p.Find(key); i >= 0 {
			if !replace {
				return ErrKeyExists
			}
			if err := p.Remove(i); err != nil {
				return err
			}
			db.count--
		}
		if p.Fits(len(key), len(data)) {
			p.Insert(key, data)
			db.count++
			return db.writeBucket(pg, b)
		}
		if b.depth() >= maxDirBits {
			return ErrSplit
		}
		if err := db.splitBucket(pg, b); err != nil {
			return err
		}
	}
}

// splitBucket splits the bucket stored at page pg, doubling the
// directory if the bucket's depth already equals the directory's.
func (db *DB) splitBucket(pg uint32, b bucketPage) error {
	nb := b.depth()
	if nb == db.depth {
		// Double the directory: each entry is duplicated; depth grows.
		if db.depth >= maxDirBits {
			return ErrSplit
		}
		newDir := make([]uint32, 2*len(db.dir))
		for i, p := range db.dir {
			newDir[i] = p
			newDir[i+len(db.dir)] = p
		}
		db.dir = newDir
		db.depth++
	}
	// Split by bit nb (the next hash bit beyond the bucket's depth).
	newPg := db.nextPage
	db.nextPage++
	oldB := db.newBucket(nb + 1)
	newB := db.newBucket(nb + 1)
	bit := uint32(1) << uint(nb)
	b.data().ForEach(func(i int, k, v []byte) bool {
		if hashfunc.Default(k)&bit != 0 {
			newB.data().Insert(k, v)
		} else {
			oldB.data().Insert(k, v)
		}
		return true
	})
	// Redirect the directory entries whose bit nb is set from pg to the
	// new page.
	for i := range db.dir {
		if db.dir[i] == pg && uint32(i)&bit != 0 {
			db.dir[i] = newPg
		}
	}
	if err := db.writeBucket(newPg, newB); err != nil {
		return err
	}
	return db.writeBucket(pg, oldB)
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	if db.closed {
		return ErrClosed
	}
	pg := db.dir[db.dirIndex(hashfunc.Default(key))]
	b, err := db.readBucket(pg)
	if err != nil {
		return err
	}
	p := b.data()
	i := p.Find(key)
	if i < 0 {
		return ErrNotFound
	}
	if err := p.Remove(i); err != nil {
		return err
	}
	db.count--
	return db.writeBucket(pg, b)
}

// Len returns the number of stored pairs.
func (db *DB) Len() int { return int(db.count) }

// ForEach visits every pair, visiting each bucket once even when several
// directory entries share it.
func (db *DB) ForEach(fn func(key, data []byte) bool) error {
	if db.closed {
		return ErrClosed
	}
	seen := make(map[uint32]bool)
	for _, pg := range db.dir {
		if seen[pg] {
			continue
		}
		seen[pg] = true
		b, err := db.readBucket(pg)
		if err != nil {
			return err
		}
		stop := false
		b.data().ForEach(func(i int, k, v []byte) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return nil
		}
	}
	return nil
}

// Sync persists the header and directory.
func (db *DB) Sync() error {
	if db.closed {
		return ErrClosed
	}
	if err := db.flushMeta(); err != nil {
		return err
	}
	return db.store.Sync()
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	if db.closed {
		return nil
	}
	err := db.Sync()
	db.closed = true
	if db.ownStore {
		if e := db.store.Close(); err == nil {
			err = e
		}
	}
	return err
}

// Depth returns the directory depth (for tests).
func (db *DB) Depth() int { return db.depth }

// DirSize returns the directory entry count (for tests).
func (db *DB) DirSize() int { return len(db.dir) }

// PageStore returns the backing page store (for benchmark accounting).
func (db *DB) PageStore() pagefile.Store { return db.store }
