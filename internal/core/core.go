// Package core implements the paper's hashing package: a linear-hash table
// (Litwin 1980, Larson 1988) with the hybrid split policy, buddy-in-waiting
// overflow pages, large key/data support and LRU buffer management
// described in "A New Hashing Package for UNIX" (Seltzer & Yigit, USENIX
// Winter 1991).
//
// A Table maps byte-string keys to byte-string values. It may live purely
// in memory or be backed by a page file on disk; both modes use the same
// page-oriented representation, so in-memory tables can be written to disk
// and disk tables cached in memory — the unification of dbm and hsearch
// that motivates the paper.
//
// Splits occur in the predefined order of linear hashing, but the time at
// which a bucket is split is decided both by page overflow (uncontrolled
// splitting) and by exceeding the table fill factor (controlled
// splitting). Buckets are pages of a configurable size (bsize); when the
// keys in a bucket exceed its primary page, overflow pages are chained to
// it. Overflow pages are allocated between generations of primary pages
// and addressed by a 16-bit (splitpoint, pagenumber) code so that both
// primary and overflow pages map to file locations without reorganizing
// the file. Key/data pairs too large for a page are stored on dedicated
// chains of overflow pages — the same mechanism, as the paper prescribes,
// so inserts never fail because a pair is too large or because too many
// keys collide.
package core

import (
	"errors"
	"fmt"
	"math/bits"
)

// Table-parameter defaults, from the paper's "Table Parameterization"
// section: the bucket size defaults to 256 bytes, the fill factor to
// eight, and the package allocates up to 64 KB of buffered pages.
const (
	DefaultBsize     = 256
	DefaultFfactor   = 8
	DefaultCacheSize = 64 * 1024

	// MinBsize and MaxBsize bound the bucket size. Offsets within pages
	// are 16 bits, limiting the maximum page size to 32 KB; a bucket
	// smaller than 64 bytes is not recommended (and not supported).
	MinBsize = 64
	MaxBsize = 32768
)

// Overflow addressing: the top five bits of a 16-bit overflow address are
// the split point, the lower eleven the page number within the split
// point. Files may split 32 times, yielding a maximum file size of 2^32
// buckets and 32*2^11 overflow pages.
const (
	splitShift   = 11
	splitMask    = 1<<splitShift - 1 // low eleven bits: page number
	maxSplits    = 32
	maxSplitPage = splitMask // page numbers are 1..2047; 0 means "none"
)

// Errors returned by Table operations.
var (
	ErrNotFound     = errors.New("hash: key not found")
	ErrKeyExists    = errors.New("hash: key already exists")
	ErrReadOnly     = errors.New("hash: table is read-only")
	ErrClosed       = errors.New("hash: table is closed")
	ErrBadMagic     = errors.New("hash: not a hash file")
	ErrBadVersion   = errors.New("hash: unsupported version")
	ErrHashMismatch = errors.New("hash: file was created with a different hash function")
	ErrCorrupt      = errors.New("hash: file is corrupt")
	ErrTooManyPages = errors.New("hash: out of overflow pages")
	ErrEmptyKey     = errors.New("hash: empty key")

	// ErrNeedsRecovery is returned by Open when the file's dirty flag is
	// set — its writer crashed before a sync, as a live one holds the lock —
	// and without Options.AllowDirty. Run Recover, or open with AllowDirty.
	ErrNeedsRecovery = errors.New("hash: file was not cleanly closed; recovery required")
	// ErrUnrecoverable is returned by Recover and Verify when a dirty
	// file's pages do not reproduce the state recorded at the last
	// successful sync: data has been lost or corrupted and no repair can
	// restore it.
	ErrUnrecoverable = errors.New("hash: file is unrecoverable")
)

// pairHash is an order-independent fingerprint component for one key/data
// pair: FNV-1a over the key length, the key bytes and the data bytes. The
// header's pairSum is the XOR of pairHash over every stored pair, so it
// can be maintained incrementally (XOR in on insert, XOR out on delete)
// and recomputed by a walk in any order. Folding the key length keeps
// ("ab","c") and ("a","bc") from colliding.
func pairHash(key, data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for n := len(key); ; n >>= 8 {
		h = (h ^ uint64(n&0xff)) * prime64
		if n < 0x100 {
			break
		}
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * prime64
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// oaddr is a 16-bit overflow page address. Zero is never a valid address
// (page numbers start at one), so zero means "no page".
type oaddr uint16

func makeOaddr(split uint32, pagenum uint32) oaddr {
	return oaddr(split<<splitShift | pagenum&splitMask)
}

func (o oaddr) split() uint32   { return uint32(o) >> splitShift }
func (o oaddr) pagenum() uint32 { return uint32(o) & splitMask }

func (o oaddr) String() string {
	return fmt.Sprintf("%d/%d", o.split(), o.pagenum())
}

// ceilLog2 returns the smallest p such that 1<<p >= x. It is the __log2
// of the 4.4BSD implementation — there a shift loop, here a single
// hardware leading-zero count: for x > 1 the answer is the bit length of
// x-1. This sits on the BUCKET_TO_PAGE path, i.e. under every page
// fetch; see BenchmarkCeilLog2 for the loop-vs-bits comparison.
func ceilLog2(x uint32) uint32 {
	if x <= 1 {
		return 0
	}
	return uint32(bits.Len32(x - 1))
}

// nextPow2 rounds x up to a power of two (minimum 1).
func nextPow2(x uint32) uint32 {
	if x <= 1 {
		return 1
	}
	if x > 1<<31 {
		return 1 << 31
	}
	return 1 << bits.Len32(x-1)
}

func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }
