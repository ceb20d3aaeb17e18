// Package sdbm is a clean-room Go port of Ozan Yigit's sdbm library as
// the paper describes it: a simplified implementation of Larson's 1978
// dynamic hashing [LAR78], using a single linearized radix trie, a
// bit-randomizing hash function in place of the boolean pseudo-random
// generator, and the hash bits exposed during trie traversal as the
// bucket address:
//
//	tbit = 0; hbit = 0; mask = 0;
//	for (mask = 0; isbitset(tbit); mask = (mask << 1) + 1)
//		if (hash & (1 << hbit++))
//			tbit = 2 * tbit + 2;   /* right son */
//		else
//			tbit = 2 * tbit + 1;   /* left son */
//	bucket = hash & mask;
//
// The interface and the externally visible shortcomings match ndbm's (one
// page per bucket, no overflow pages, single-page cache), but the two are
// incompatible at the database level: different access function, bucket
// address calculation, and hash function.
package sdbm

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
	ErrNotFound  = errors.New("sdbm: key not found")
	ErrKeyExists = errors.New("sdbm: key already exists")
	ErrTooBig    = errors.New("sdbm: key/data pair exceeds the page size")
	ErrSplit     = errors.New("sdbm: cannot split bucket (too many colliding keys)")
	ErrClosed    = errors.New("sdbm: database is closed")
)

// DefaultPageSize matches sdbm's PBLKSIZ.
const DefaultPageSize = 1024

const maxDepth = 28 // trie depth bound; the split loop gives up past it

// Options parameterizes Open.
type Options struct {
	PageSize int
	Store    pagefile.Store
}

// DB is an sdbm database: bucket pages plus the linearized radix trie
// (persisted in a .dir file when file-backed).
type DB struct {
	store    pagefile.Store
	ownStore bool
	dirPath  string
	pagesize int

	trie []byte // linearized radix trie bits

	cacheNo dpage.Page
	cacheBn uint32
	cached  bool
	dirty   bool

	closed bool
}

// Open opens or creates the database stored in path+".pag" and
// path+".dir". An empty path with opts.Store unset is memory-backed.
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
		db.trie = bm
	}
	if db.store.PageSize() != o.PageSize {
		return nil, fmt.Errorf("sdbm: store page size %d != requested %d", db.store.PageSize(), o.PageSize)
	}
	return db, nil
}

func (db *DB) isbitset(bit uint64) bool {
	i := bit / 8
	if i >= uint64(len(db.trie)) {
		return false
	}
	return db.trie[i]&(1<<(bit%8)) != 0
}

func (db *DB) setbit(bit uint64) {
	i := bit / 8
	for uint64(len(db.trie)) <= i {
		db.trie = append(db.trie, 0)
	}
	db.trie[i] |= 1 << (bit % 8)
}

// calc walks the linearized radix trie with the hash bits, returning the
// bucket, the external node's trie index, and the number of bits used.
func (db *DB) calc(hash uint32) (bucket uint32, tbit uint64, hbit int) {
	var mask uint32
	for db.isbitset(tbit) {
		if hash&(1<<uint(hbit)) != 0 {
			tbit = 2*tbit + 2 // right son
		} else {
			tbit = 2*tbit + 1 // left son
		}
		hbit++
		mask = mask<<1 | 1
	}
	return hash & mask, tbit, hbit
}

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
	bucket, _, _ := db.calc(hashfunc.SDBM(key))
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

// Store inserts key/data, splitting buckets through the trie until the
// pair fits. It reproduces the dbm-family failure modes (ErrTooBig,
// ErrSplit).
func (db *DB) Store(key, data []byte, replace bool) error {
	if db.closed {
		return ErrClosed
	}
	if len(key)+len(data) > dpage.MaxPair(db.pagesize) {
		return ErrTooBig
	}
	hash := hashfunc.SDBM(key)
	for {
		bucket, tbit, hbit := db.calc(hash)
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
		if hbit >= maxDepth {
			return ErrSplit
		}
		if err := db.split(bucket, tbit, hbit); err != nil {
			return err
		}
	}
}

// split turns the external node at tbit into an internal node, dividing
// the bucket's contents by hash bit hbit.
func (db *DB) split(bucket uint32, tbit uint64, hbit int) error {
	p, err := db.fetchPage(bucket)
	if err != nil {
		return err
	}
	newBit := uint32(1) << uint(hbit)
	oldPage := dpage.Page(make([]byte, db.pagesize))
	newPage := dpage.Page(make([]byte, db.pagesize))
	oldPage.Init()
	newPage.Init()
	p.ForEach(func(i int, k, v []byte) bool {
		if hashfunc.SDBM(k)&newBit != 0 {
			newPage.Insert(k, v)
		} else {
			oldPage.Insert(k, v)
		}
		return true
	})
	db.setbit(tbit)
	if err := db.writePage(bucket|newBit, newPage); err != nil {
		return err
	}
	if err := db.writePage(bucket, oldPage); err != nil {
		return err
	}
	copy(db.cacheNo, oldPage)
	db.dirty = false
	return nil
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	if db.closed {
		return ErrClosed
	}
	bucket, _, _ := db.calc(hashfunc.SDBM(key))
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

// Cursor iterates keys in storage order.
type Cursor struct {
	db *DB
	bn uint32
	i  int
}

// First returns a cursor positioned at the first key.
func (db *DB) First() *Cursor { return &Cursor{db: db} }

// Next returns the next key, or nil at the end.
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
		return 1
	}
	return n
}

// Len counts the pairs by scanning.
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

// Sync flushes the page cache and persists the trie.
func (db *DB) Sync() error {
	if db.closed {
		return ErrClosed
	}
	if err := db.flushCache(); err != nil {
		return err
	}
	if db.dirPath != "" {
		if err := os.WriteFile(db.dirPath, db.trie, 0o644); err != nil {
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
