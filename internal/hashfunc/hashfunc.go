// Package hashfunc provides the bit-randomizing hash functions used by the
// hashing package and its baselines.
//
// The paper ("A New Hashing Package for UNIX", Seltzer & Yigit, USENIX
// Winter 1991) requires hash functions that produce radically different
// 32-bit values for nearly identical keys, so that similar keys do not
// cluster in one bucket. Several functions are provided; Default is the
// package default (chosen, as in the paper, for cycles-per-call rather than
// strictly minimal collisions), and the remainder back the baseline
// implementations (sdbm, dbm, hsearch) and give applications alternatives
// for time-critical workloads.
package hashfunc

// Func is the signature of a user-suppliable hash function: it takes a byte
// string and returns an unsigned 32-bit hash value. It mirrors the paper's
// "pointer to a byte string and a length" contract.
type Func func(key []byte) uint32

// Default is the hash function used when none is supplied at table-creation
// time: the multiplicative hash shipped as a 4.4BSD hash(3) built-in
// (dcharhash), chosen — as the paper says of its default — for cycles
// executed per call rather than strictly minimal collisions.
func Default(key []byte) uint32 {
	var h uint32
	// h = h*0x63c63cd9 + 0x9c39c33d + c per byte, unrolled eight at a
	// time (the original C used a Duff's device). Re-slicing to an
	// exactly-8-byte view lets the compiler prove every index in the
	// block is in bounds from the single check in the loop condition.
	for len(key) >= 8 {
		k := key[:8:8]
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(k[0])
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(k[1])
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(k[2])
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(k[3])
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(k[4])
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(k[5])
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(k[6])
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(k[7])
		key = key[8:]
	}
	for _, c := range key {
		h = 0x63c63cd9*h + 0x9c39c33d + uint32(c)
	}
	return h
}

// SDBM is the hash used by the sdbm baseline: the classic x65599
// polynomial, h = c + (h<<6) + (h<<16) - h.
func SDBM(key []byte) uint32 {
	var h uint32
	for _, c := range key {
		h = uint32(c) + (h << 6) + (h << 16) - h
	}
	return h
}

// DBM is Ken Thompson's dbm hash as described in [THOM90, TOR88]: a
// multiplicative hash over the bytes with a final mixing constant. dbm and
// ndbm both use it to convert a key into a 32-bit value of which only as
// many bits as necessary are revealed.
func DBM(key []byte) uint32 {
	h := uint32(0)
	for i, c := range key {
		h += uint32(c) * mulTab[i&7]
		h = h*0x41c64e6d + 0x3039
	}
	return h
}

// mulTab perturbs byte positions in DBM so that transposed keys hash apart.
var mulTab = [8]uint32{0x1003f, 0x10f01, 0x3f1d3, 0x52325, 0x6b8b5, 0x7ffff, 0x93b17, 0xa74c9}

// KnuthMultiplicative is the multiplicative method of Knuth Vol. 3 §6.4 used
// by System V hsearch for its primary bucket address: the key bytes are
// folded to a word which is multiplied by the golden-ratio constant; callers
// take the high bits modulo their table size.
func KnuthMultiplicative(key []byte) uint32 {
	var w uint32
	for _, c := range key {
		w = w<<5 ^ w>>27 ^ uint32(c)
	}
	return w * 2654435761 // floor(2^32 / phi)
}

// Division folds the key to a word for the division method ("DIV" compile
// option in System V hsearch): the caller reduces the result modulo the
// table size and resolves collisions by linear probing.
func Division(key []byte) uint32 {
	var w uint32
	for _, c := range key {
		w = w*31 + uint32(c)
	}
	return w
}

// FNV1a is a modern alternative offered to applications experimenting with
// hash functions per the paper's advice for time-critical uses.
func FNV1a(key []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// CheckKey is the distinguished key whose hash is stored in the file header
// so that opening an existing table with a different hash function than the
// one it was created with can be detected (paper, "Table Parameterization").
var CheckKey = []byte{0xca, 0xfe, 0xba, 0xbe, 'h', 'a', 's', 'h'}

// ByName maps the registry of built-in functions for tools (hashbench's
// ablation) that select a function by name.
var ByName = map[string]Func{
	"default":  Default,
	"sdbm":     SDBM,
	"dbm":      DBM,
	"knuth":    KnuthMultiplicative,
	"division": Division,
	"fnv1a":    FNV1a,
}
