// Package ndbm is a clean-room Go port of the dbm/ndbm algorithm as the
// paper describes it (Ken Thompson's design [THOM90, TOR88, WAL84]):
// fixed-size disk buckets, a 32-bit bit-randomizing hash, and an
// in-memory bitmap tracing the split history. Only as many bits of the
// hash value as necessary are revealed to locate a bucket in a single
// disk access:
//
//	hash = calchash(key);
//	mask = 0;
//	while (isbitset((hash & mask) + mask))
//		mask = (mask << 1) + 1;
//	bucket = hash & mask;
//
// The port deliberately reproduces dbm's shortcomings, which the paper's
// evaluation depends on: a single-page cache (nearly every access costs a
// disk operation), no overflow pages (a store fails when colliding keys
// exceed a page), and a hard limit on key+data size (one page).
package ndbm

import (
	"errors"
	"fmt"
	"os"

	"unixhash/internal/dpage"
	"unixhash/internal/hashfunc"
	"unixhash/internal/pagefile"
)

// Errors returned by DB operations.
var (
	ErrNotFound  = errors.New("ndbm: key not found")
	ErrKeyExists = errors.New("ndbm: key already exists")
	ErrTooBig    = errors.New("ndbm: key/data pair exceeds the page size")
	ErrSplit     = errors.New("ndbm: cannot split bucket (too many colliding keys)")
	ErrClosed    = errors.New("ndbm: database is closed")
)

// DefaultPageSize is dbm's classic PBLKSIZ.
const DefaultPageSize = 1024

const maxSplitBits = 30 // the split loop gives up past this many mask bits

// Options parameterizes Open.
type Options struct {
	// PageSize is the fixed bucket size (dbm's PBLKSIZ). Default 1024.
	PageSize int
	// Store overrides the .pag backing store; the caller retains
	// ownership and the path argument is ignored.
	Store pagefile.Store
}

// DB is an ndbm database: a page file of buckets plus the split-history
// bitmap (persisted in a .dir file when file-backed).
type DB struct {
	store    pagefile.Store
	ownStore bool
	dirPath  string
	pagesize int

	bitmap []byte // split-history bits, as in the .dir file

	// dbm's single-page cache: the last page touched.
	cacheNo dpage.Page
	cacheBn uint32
	cached  bool
	dirty   bool

	closed bool
}

// Open opens or creates the database stored in path+".pag" and
// path+".dir". An empty path with opts.Store unset creates a
// memory-backed database (used in tests and benchmarks).
func Open(path string, opts *Options) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	db := &DB{pagesize: o.PageSize}
	switch {
	case o.Store != nil:
		db.store = o.Store
	case path == "":
		db.store = pagefile.NewMem(o.PageSize)
		db.ownStore = true
	default:
		fs, err := pagefile.OpenFile(path+".pag", o.PageSize, pagefile.CostModel{})
		if err != nil {
			return nil, err
		}
		db.store = fs
		db.ownStore = true
		db.dirPath = path + ".dir"
		bm, err := os.ReadFile(db.dirPath)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			fs.Close()
			return nil, err
		}
		db.bitmap = bm
	}
	if db.store.PageSize() != o.PageSize {
		return nil, fmt.Errorf("ndbm: store page size %d != requested %d", db.store.PageSize(), o.PageSize)
	}
	return db, nil
}

func (db *DB) isbitset(bit uint64) bool {
	i := bit / 8
	if i >= uint64(len(db.bitmap)) {
		return false
	}
	return db.bitmap[i]&(1<<(bit%8)) != 0
}

func (db *DB) setbit(bit uint64) {
	i := bit / 8
	for uint64(len(db.bitmap)) <= i {
		db.bitmap = append(db.bitmap, 0)
	}
	db.bitmap[i] |= 1 << (bit % 8)
}

// calc runs Thompson's access function: reveal hash bits until the split
// history says the bucket exists unsplit.
func (db *DB) calc(hash uint32) (bucket uint32, mask uint32, nbits int) {
	for db.isbitset(uint64(hash&mask) + uint64(mask)) {
		mask = mask<<1 + 1
		nbits++
	}
	return hash & mask, mask, nbits
}

// fetchPage reads bucket bn through the single-page cache.
func (db *DB) fetchPage(bn uint32) (dpage.Page, error) {
	if db.cached && db.cacheBn == bn {
		return db.cacheNo, nil
	}
	if err := db.flushCache(); err != nil {
		return nil, err
	}
	buf := make([]byte, db.pagesize)
	err := db.store.ReadPage(bn, buf)
	if err != nil && !errors.Is(err, pagefile.ErrNotAllocated) {
		return nil, err
	}
	p := dpage.Page(buf)
	p.InitIfNew()
	db.cacheNo, db.cacheBn, db.cached, db.dirty = p, bn, true, false
	return p, nil
}

func (db *DB) flushCache() error {
	if !db.cached || !db.dirty {
		return nil
	}
	if err := db.store.WritePage(db.cacheBn, db.cacheNo); err != nil {
		return err
	}
	db.dirty = false
	return nil
}

// writePage writes a page immediately (dbm semantics: stores hit disk).
func (db *DB) writePage(bn uint32, p dpage.Page) error {
	if err := db.store.WritePage(bn, p); err != nil {
		return err
	}
	if db.cached && db.cacheBn == bn {
		db.dirty = false
	}
	return nil
}

// Fetch returns a copy of the data stored under key.
func (db *DB) Fetch(key []byte) ([]byte, error) {
	if db.closed {
		return nil, ErrClosed
	}
	bucket, _, _ := db.calc(hashfunc.DBM(key))
	p, err := db.fetchPage(bucket)
	if err != nil {
		return nil, err
	}
	i := p.Find(key)
	if i < 0 {
		return nil, ErrNotFound
	}
	_, data := p.Pair(i)
	return append([]byte(nil), data...), nil
}

// Store inserts key/data. With replace false it fails on duplicates
// (DBM_INSERT); with replace true it overwrites (DBM_REPLACE). It fails
// with ErrTooBig when the pair exceeds a page and with ErrSplit when the
// colliding keys in a bucket cannot be separated — dbm's documented
// shortcomings.
func (db *DB) Store(key, data []byte, replace bool) error {
	if db.closed {
		return ErrClosed
	}
	if len(key)+len(data) > dpage.MaxPair(db.pagesize) {
		return ErrTooBig
	}
	hash := hashfunc.DBM(key)
	for splits := 0; ; splits++ {
		bucket, mask, nbits := db.calc(hash)
		p, err := db.fetchPage(bucket)
		if err != nil {
			return err
		}
		if i := p.Find(key); i >= 0 {
			if !replace {
				return ErrKeyExists
			}
			if err := p.Remove(i); err != nil {
				return err
			}
			db.dirty = true
		}
		if p.Fits(len(key), len(data)) {
			p.Insert(key, data)
			db.dirty = true
			return db.flushCache()
		}
		if nbits >= maxSplitBits || splits >= maxSplitBits {
			return ErrSplit
		}
		if err := db.split(bucket, mask, nbits); err != nil {
			return err
		}
	}
}

// split divides bucket's contents between bucket and bucket|(mask+1) by
// the next hash bit, and marks the bucket split in the bitmap.
func (db *DB) split(bucket, mask uint32, nbits int) error {
	p, err := db.fetchPage(bucket)
	if err != nil {
		return err
	}
	newBit := mask + 1 // == 1 << nbits
	oldPage := dpage.Page(make([]byte, db.pagesize))
	newPage := dpage.Page(make([]byte, db.pagesize))
	oldPage.Init()
	newPage.Init()
	// dbm splits even when every key lands on one side; the caller's
	// split counter bounds the retry loop.
	p.ForEach(func(i int, k, v []byte) bool {
		if hashfunc.DBM(k)&newBit != 0 {
			newPage.Insert(k, v)
		} else {
			oldPage.Insert(k, v)
		}
		return true
	})
	db.setbit(uint64(bucket) + uint64(mask))
	if err := db.writePage(bucket|newBit, newPage); err != nil {
		return err
	}
	if err := db.writePage(bucket, oldPage); err != nil {
		return err
	}
	// Refresh the cache with the rewritten old bucket.
	copy(db.cacheNo, oldPage)
	db.dirty = false
	return nil
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	if db.closed {
		return ErrClosed
	}
	bucket, _, _ := db.calc(hashfunc.DBM(key))
	p, err := db.fetchPage(bucket)
	if err != nil {
		return err
	}
	i := p.Find(key)
	if i < 0 {
		return ErrNotFound
	}
	if err := p.Remove(i); err != nil {
		return err
	}
	db.dirty = true
	return db.flushCache()
}

// Cursor iterates keys in storage order, the Firstkey/Nextkey interface.
// As with ndbm, only keys are returned; fetching data costs a second
// call (the asymmetry the paper's sequential-retrieval test measures).
type Cursor struct {
	db     *DB
	bn     uint32
	i      int
	primed bool
}

// First returns a cursor positioned at the first key.
func (db *DB) First() *Cursor { return &Cursor{db: db} }

// Next returns the next key, or nil at the end of the database.
func (c *Cursor) Next() ([]byte, error) {
	if c.db.closed {
		return nil, ErrClosed
	}
	for {
		if c.bn >= c.db.npages() {
			return nil, nil
		}
		p, err := c.db.fetchPage(c.bn)
		if err != nil {
			return nil, err
		}
		if c.i < p.N() {
			k, _ := p.Pair(c.i)
			c.i++
			return append([]byte(nil), k...), nil
		}
		c.bn++
		c.i = 0
	}
}

func (db *DB) npages() uint32 {
	n := db.store.NPages()
	if n == 0 {
		return 1 // bucket 0 always logically exists
	}
	return n
}

// Len counts the pairs by scanning (dbm keeps no count).
func (db *DB) Len() (int, error) {
	n := 0
	c := db.First()
	for {
		k, err := c.Next()
		if err != nil {
			return 0, err
		}
		if k == nil {
			return n, nil
		}
		n++
	}
}

// Sync flushes the page cache and persists the split bitmap.
func (db *DB) Sync() error {
	if db.closed {
		return ErrClosed
	}
	if err := db.flushCache(); err != nil {
		return err
	}
	if db.dirPath != "" {
		if err := os.WriteFile(db.dirPath, db.bitmap, 0o644); err != nil {
			return err
		}
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

// PageStore returns the backing page store (for benchmark accounting).
func (db *DB) PageStore() pagefile.Store { return db.store }
