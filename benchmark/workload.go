package main

import "encoding/binary"

// Sizing shared by every workload (see README.md, "Sizing").
const (
	nConns       = 2       // load-generator connections = nproc on the reference host
	preloadKeys  = 200_000 // keys loaded through BATCH before the measured phase
	valueLen     = 100
	keyLen       = 13        // "key-%09d"
	newKeyBase   = 1_000_000 // first id of keys created by PUT-new; per connection +c*newKeyStride
	newKeyStride = 100_000_000
	absentBase   = 900_000_000 // ids that are never stored; per connection +c*absentStride
	absentStride = 10_000_000
	reinsertLag  = 256 // deleted keys wait this long in the queue before re-insert
)

// serverFlags are the dbserver flags every workload shares; each
// workload adds only -cache. Everything else stays at its default,
// including -wal and -oplog.
var serverFlags = []string{"-shards", "2", "-bsize", "4096", "-ffactor", "24"}

const (
	nShards = 2
	bsize   = 4096
	ffactor = 24
)

// opKind is what one generated operation does.
type opKind uint8

const (
	opGet       opKind = iota // GET of a key the model holds
	opGetAbsent               // GET of a key that was never stored
	opPut                     // PUT overwriting a present key
	opPutNew                  // PUT of a never-seen key (table grows)
	opDel                     // DEL of a present key
	opReinsert                // PUT of a key deleted earlier
	opTxn                     // TXN BEGIN, 2 PUT, 1 DEL-or-PUT, TXN COMMIT
	nOpKinds
)

// class groups op kinds by the latency metric they feed.
type class uint8

const (
	classGet class = iota
	classPut
	classDel
	classTxn
	nClasses
)

var classNames = [nClasses]string{"get", "put", "del", "txn"}

func (k opKind) class() class {
	switch k {
	case opGet, opGetAbsent:
		return classGet
	case opDel:
		return classDel
	case opTxn:
		return classTxn
	}
	return classPut
}

// spec is one named workload. opsPerSecond is the frozen op budget: a
// run of S seconds issues opsPerSecond*S operations, whatever the host
// speed. It was calibrated once on the seed commit so that the measured
// phase takes about S seconds there (README.md, "Calibration").
type spec struct {
	name         string
	why          string
	cache        int // dbserver -cache bytes per shard; 0 = the default (64 KiB)
	depth        int // requests per pipeline window; 1 = ping-pong
	open         bool
	opsPerSecond int         // closed loop: op budget; open loop: the offered rate
	mix          [100]opKind // op kind by percentile of one uniform draw
}

// share is one op kind's percentage of a workload.
type share struct {
	pct  int
	kind opKind
}

func mix(shares ...share) (m [100]opKind) {
	i := 0
	for _, s := range shares {
		for n := s.pct; n > 0; n-- {
			m[i] = s.kind
			i++
		}
	}
	if i != 100 {
		panic("mix does not sum to 100")
	}
	return m
}

var readMix = mix(share{90, opGet}, share{10, opGetAbsent})

var specs = []spec{
	{
		name: "read_cached", depth: 16, cache: 64 << 20, opsPerSecond: 250_000, mix: readMix,
		why: "GETs with the working set inside each shard's pool: server parse/reply, db routing, hashfunc, core page search and buffer hits do all the work; pagefile and wal do none",
	},
	{
		name: "read_faulting", depth: 16, opsPerSecond: 200_000, mix: readMix,
		why: "the same GET stream with the default 64 KiB pool: every GET is a fault, an eviction and a pagefile read, so a pool or read-ahead change shows here and not on read_cached",
	},
	{
		name: "write_coalesced", depth: 64, opsPerSecond: 170_000, mix: mix(share{70, opPutNew}, share{30, opPut}),
		why: "pipelined plain PUTs the server coalesces into db.PutBatch: table-exclusive batch path, splits, overflow allocation and dirty-page eviction writes, with no fsync",
	},
	{
		name: "mixed_churn_open", depth: 1, open: true, opsPerSecond: 12_000,
		mix: mix(share{50, opGet}, share{35, opPut}, share{10, opDel}, share{5, opGetAbsent}),
		why: "open loop at a fixed rate, reads beside single PUTs and DEL/re-insert churn on the same buckets: latency without coordinated omission, and chain depth and file size free to drift",
	},
	{
		name: "txn_durable", depth: 1, opsPerSecond: 3_200, mix: mix(share{100, opTxn}),
		why: "the only durable write on the wire: wal marshal, append and real fsync, group commit across the two connections; reads bypass it",
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// splitmix64 is the generator's only source of randomness.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// appendKey writes the 13-byte key of id: "key-%09d".
func appendKey(dst []byte, id uint32) []byte {
	var k [keyLen]byte
	copy(k[:], "key-")
	for i := keyLen - 1; i >= 4; i-- {
		k[i] = byte('0' + id%10)
		id /= 10
	}
	return append(dst, k[:]...)
}

// keyID is appendKey's inverse; ok is false for a key this benchmark
// did not generate.
func keyID(key []byte) (id uint32, ok bool) {
	if len(key) != keyLen || string(key[:4]) != "key-" {
		return 0, false
	}
	for _, c := range key[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint32(c-'0')
	}
	return id, true
}

// fillValue writes the value the model expects under (id, version) for
// this seed. Version 0 means "absent" and has no value.
func fillValue(dst *[valueLen]byte, seed uint64, id, version uint32) {
	x := rng(seed ^ uint64(id)<<32 ^ uint64(version))
	var w [8]byte
	for i := 0; i < valueLen; i += 8 {
		binary.LittleEndian.PutUint64(w[:], x.next())
		copy(dst[i:], w[:])
	}
}

// sub is one key-level effect of an op: after it, key id holds version
// ver (0 = absent).
type sub struct {
	id  uint32
	ver uint32
}

// op is one generated operation. GET/PUT/DEL use subs[0]; a txn uses
// all three. For a GET, subs[0].ver is the version the reply must show.
type op struct {
	kind opKind
	subs [3]sub
	del  bool // txn only: subs[2] is a DEL
}

// gen produces one connection's operation stream and is, at the same
// time, the model of what the server must hold for that connection's
// key range: connection c owns preloaded ids [c*per, (c+1)*per), its own
// new-key range and its own absent range, so no other connection ever
// changes a key this model tracks.
type gen struct {
	sp      *spec
	seed    uint64
	r       rng
	base    uint32   // first preloaded id owned
	vers    []uint32 // last version written per owned preloaded id; dead bit = deleted
	newBase uint32
	nNew    uint32   // new keys created so far (all at version 1)
	absent  uint32   // next absent id
	deleted []uint32 // FIFO of deleted ids awaiting re-insert
	live    int      // live keys in this connection's ranges
}

// dead marks a deleted key in gen.vers. The version under it is kept so
// that a re-insert writes a value the key never held before.
const dead = 1 << 31

// newGen returns connection conn's generator over a table preloaded
// with keys keys (split evenly over the connections).
func newGen(sp *spec, seed uint64, conn, keys int) *gen {
	per := keys / nConns
	g := &gen{
		sp: sp, seed: seed,
		r:       rng(seed*0x9e3779b97f4a7c15 + uint64(conn)*0xd1b54a32d192ed03 + 1),
		base:    uint32(conn * per),
		vers:    make([]uint32, per),
		newBase: uint32(newKeyBase + conn*newKeyStride),
		absent:  uint32(absentBase + conn*absentStride),
		live:    per,
	}
	for i := range g.vers {
		g.vers[i] = 1
	}
	return g
}

// present picks a uniformly random owned key that is live, scanning
// forward past the few deleted ones.
func (g *gen) present() uint32 {
	i := g.r.intn(len(g.vers))
	for g.vers[i]&dead != 0 {
		if i++; i == len(g.vers) {
			i = 0
		}
	}
	return g.base + uint32(i)
}

// put records a PUT of id in the model and returns its new version.
func (g *gen) put(id uint32) sub {
	v := &g.vers[id-g.base]
	if *v&dead != 0 {
		g.live++
	}
	*v = *v&^dead + 1
	return sub{id, *v}
}

// del records a DEL of id in the model.
func (g *gen) del(id uint32) sub {
	if v := &g.vers[id-g.base]; *v&dead == 0 {
		*v |= dead
		g.live--
	}
	return sub{id, 0}
}

// next generates the following operation and applies it to the model.
func (g *gen) next(o *op) {
	o.kind = g.sp.mix[g.r.intn(100)]
	switch o.kind {
	case opGet:
		id := g.present()
		o.subs[0] = sub{id, g.vers[id-g.base]}
	case opGetAbsent:
		o.subs[0] = sub{g.absent, 0}
		g.absent++
	case opPut:
		// A PUT re-inserts the oldest deleted key once the queue is long
		// enough, so deletes are followed "later" by their re-insert and
		// the key count stays level.
		if len(g.deleted) > reinsertLag {
			o.kind = opReinsert
			o.subs[0] = g.put(g.deleted[0])
			g.deleted = g.deleted[1:]
			return
		}
		o.subs[0] = g.put(g.present())
	case opPutNew:
		o.subs[0] = sub{g.newBase + g.nNew, 1}
		g.nNew++
		g.live++
	case opDel:
		id := g.present()
		g.deleted = append(g.deleted, id)
		o.subs[0] = g.del(id)
	case opTxn:
		// Three distinct keys, so the order of ops inside the
		// transaction cannot matter to the model.
		var ids [3]uint32
		for i := 0; i < len(ids); {
			ids[i] = g.base + uint32(g.r.intn(len(g.vers)))
			if i == 0 || (ids[i] != ids[0] && (i == 1 || ids[i] != ids[1])) {
				i++
			}
		}
		o.subs[0] = g.put(ids[0])
		o.subs[1] = g.put(ids[1])
		if o.del = g.r.intn(2) == 0; o.del {
			o.subs[2] = g.del(ids[2])
		} else {
			o.subs[2] = g.put(ids[2])
		}
	}
}

// expect reports the version the model holds for id: 0 when the key is
// absent, deleted, or not one this connection owns.
func (g *gen) expect(id uint32) uint32 {
	switch {
	case id >= g.base && id < g.base+uint32(len(g.vers)):
		if v := g.vers[id-g.base]; v&dead == 0 {
			return v
		}
	case id >= g.newBase && id < g.newBase+g.nNew:
		return 1
	}
	return 0
}

// verbs and literals of the wire protocol.
var (
	bGET    = []byte("GET")
	bPUT    = []byte("PUT")
	bDEL    = []byte("DEL")
	bBATCH  = []byte("BATCH")
	bTXN    = []byte("TXN")
	bBEGIN  = []byte("BEGIN")
	bCOMMIT = []byte("COMMIT")
	bSTATS  = []byte("STATS")
	bPING   = []byte("PING")
)

// encoder turns ops into request bytes with no allocation per op.
type encoder struct {
	seed uint64
	key  [3][keyLen]byte
	val  [valueLen]byte
}

func (e *encoder) k(i int, id uint32) []byte { return appendKey(e.key[i][:0], id) }

func (e *encoder) v(s sub) []byte {
	fillValue(&e.val, e.seed, s.id, s.ver)
	return e.val[:]
}

// appendOp frames o onto buf.
func (e *encoder) appendOp(buf []byte, o *op) []byte {
	switch o.kind {
	case opGet, opGetAbsent:
		return appendCmd(buf, bGET, e.k(0, o.subs[0].id))
	case opDel:
		return appendCmd(buf, bDEL, e.k(0, o.subs[0].id))
	case opTxn:
		buf = appendCmd(buf, bTXN, bBEGIN)
		buf = appendCmd(buf, bPUT, e.k(0, o.subs[0].id), e.v(o.subs[0]))
		buf = appendCmd(buf, bPUT, e.k(1, o.subs[1].id), e.v(o.subs[1]))
		if o.del {
			buf = appendCmd(buf, bDEL, e.k(2, o.subs[2].id))
		} else {
			buf = appendCmd(buf, bPUT, e.k(2, o.subs[2].id), e.v(o.subs[2]))
		}
		return appendCmd(buf, bTXN, bCOMMIT)
	}
	return appendCmd(buf, bPUT, e.k(0, o.subs[0].id), e.v(o.subs[0]))
}
