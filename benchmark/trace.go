package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Tracing from outside: the benchmark wraps the layers' public seams
// with its own decorators (tracedb.go) and records a span around every
// call through them. Nothing inside the program is instrumented.
//
// The boundaries and their span names:
//
//	client↔server   client.window   one flush and the replies it owes
//	server↔db       db.*            calls the server makes on its db.DB
//	core↔pagefile   pagefile.*      calls core and buffer make on the Store
//	wal↔device      wal.dev.*       calls the log makes on its Device
//
// A span's parent is the span that caused it. Client and db spans are
// matched exactly (each connection owns its keys, so a db call names
// its connection and op number). Store and device calls carry no
// request identity - core offers none at that seam - but they run on
// the goroutine of the db call that caused them, so the two are matched
// by stack: a db call posts the address of one of its locals while it
// is inside a shard, and a store or device call on that shard belongs
// to the posted call whose address lies closest above its own (frames
// of one goroutine share a stack; a callee's frame is below its
// caller's). A goroutine's stack can be moved between the two readings;
// the match then fails and the span falls back to the db span on the
// same shard that contains it in time, counted in tracer.ambiguous when
// two do.

type spanName uint8

const (
	spClient spanName = iota
	spDBGet
	spDBDelete
	spDBPutBatch
	spDBTxnBegin
	spDBTxnOp
	spDBTxnCommit
	spStoreRead
	spStoreReadV
	spStoreWrite
	spStoreWriteV
	spStoreSync
	spDevRead
	spDevWrite
	spDevSync
	spDevTruncate
	spPhase // a benchmark phase (close): parent of work no request caused
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"client.window", "db.GetBuf", "db.Delete", "db.PutBatch", "db.Begin", "db.Txn.op", "db.Txn.Commit",
	"pagefile.ReadPage", "pagefile.ReadPages", "pagefile.WritePage", "pagefile.WritePages", "pagefile.Sync",
	"wal.dev.ReadAt", "wal.dev.WriteAt", "wal.dev.Sync", "wal.dev.Truncate", "phase",
}

func (n spanName) isDB() bool    { return n >= spDBGet && n <= spDBTxnCommit }
func (n spanName) isStore() bool { return n >= spStoreRead && n <= spStoreSync }
func (n spanName) isDev() bool   { return n >= spDevRead && n <= spDevTruncate }

// span is one recorded interval. request identifies the operation that
// caused it: connection and the connection's op number (-1 when
// unknown); a span covering several ops (a pipeline window, a coalesced
// batch) names the first and counts them in nops.
type span struct {
	name       spanName
	conn       int8  // -1 unknown
	shards     uint8 // bit i: the call touched shard i
	start, end int64 // ns since epoch
	parent     int32 // index into tracer.spans after finish; -1 = root
	op         int32 // first op number on conn; -1 unknown
	nops       int32
	bytes      int32
	call       int32 // db spans: the call's number on conn; leaves: their db call's, -1 unmatched
}

// stackMark returns the address of a local of its own frame: a position
// on the calling goroutine's stack.
//
//go:noinline
func stackMark() uintptr {
	var x byte
	return uintptr(unsafe.Pointer(&x))
}

// growStack makes sure the calling goroutine's stack has room for a
// frame this large, so that a fresh goroutine does its growing (which
// moves the stack, and any mark taken on it) before it takes a mark
// rather than after.
//
//go:noinline
func growStack(i int) byte {
	var pad [32 << 10]byte
	pad[i&(len(pad)-1)] = 1 // indexed by a variable, so the frame is real
	return pad[(i+1)&(len(pad)-1)]
}

// maxStackSpan bounds how far below a db call's mark its store and
// device calls can be: the depth of core's call chain, generously.
const maxStackSpan = 256 << 10

// posted is a db call currently inside a shard.
type posted struct {
	mark uintptr // 0: none
	call int32
}

// spanList is one recording site's buffer. Sites are chosen so that a
// list almost always has a single writer; the mutex covers the rest.
type spanList struct {
	mu sync.Mutex
	s  []span
}

func (l *spanList) add(s span) {
	l.mu.Lock()
	l.s = append(l.s, s)
	l.mu.Unlock()
}

// tracer holds every span of one traced run in memory until finish.
// A nil *tracer records nothing, so untraced runs share the code path.
type tracer struct {
	// on gates the decorators: it is set for the measured phase and the
	// close that follows, not for the preload.
	on atomic.Bool

	client [nConns]spanList
	db     [nConns + 1]spanList // last: calls whose connection is unknown
	store  [nShards]spanList
	dev    [nShards]spanList
	phase  spanList

	// inside[sh][c] is connection c's db call now inside shard sh.
	inside   [nShards][nConns]posted
	insideMu [nShards]sync.Mutex

	ambiguous int // store/device spans that fell back to containment and had two candidates
}

func (t *tracer) clientSpan(conn, firstOp, nops int, start, end int64) {
	if t == nil {
		return
	}
	t.client[conn].add(span{name: spClient, conn: int8(conn), start: start, end: end, parent: -1, op: int32(firstOp), nops: int32(nops)})
}

// post announces that connection conn's db call number call is entering
// shard sh on the goroutine whose stack holds mark; unpost withdraws it.
func (t *tracer) post(sh int, conn int8, call int32, mark uintptr) {
	if conn < 0 {
		return
	}
	t.insideMu[sh].Lock()
	t.inside[sh][conn] = posted{mark, call}
	t.insideMu[sh].Unlock()
}

func (t *tracer) unpost(sh int, conn int8) {
	if conn < 0 {
		return
	}
	t.insideMu[sh].Lock()
	t.inside[sh][conn] = posted{}
	t.insideMu[sh].Unlock()
}

// leaf records a store or device span on shard sh, matched by stack to
// the db call that caused it.
func (t *tracer) leaf(list *spanList, sh int, name spanName, start int64, bytes int) {
	if !t.on.Load() {
		return
	}
	s := span{name: name, conn: -1, op: -1, call: -1, start: start, end: now(), bytes: int32(bytes)}
	here := stackMark()
	best := uintptr(maxStackSpan)
	t.insideMu[sh].Lock()
	for c, p := range t.inside[sh] {
		if p.mark > here && p.mark-here < best {
			best, s.conn, s.call = p.mark-here, int8(c), p.call
		}
	}
	t.insideMu[sh].Unlock()
	list.add(s)
}

// finish merges the lists, assigns parents and returns the spans.
func (t *tracer) finish() []span {
	var all []span
	var clientIdx [nConns][]int32
	var dbIdx []int32
	type callKey struct{ conn, call int32 }
	byCall := map[callKey]int32{} // a db call's last span: the one its I/O happens under
	for c := range t.client {
		for _, s := range t.client[c].s {
			clientIdx[c] = append(clientIdx[c], int32(len(all)))
			all = append(all, s)
		}
	}
	all = append(all, t.phase.s...)
	phases := len(all)
	for c := range t.db {
		for _, s := range t.db[c].s {
			s.parent = -1
			// db spans of a connection are in op order, as are its client
			// windows: the parent is the window whose op range holds s.op.
			if s.conn >= 0 && s.op >= 0 {
				idx := clientIdx[s.conn]
				i := sort.Search(len(idx), func(i int) bool { w := all[idx[i]]; return w.op+w.nops > s.op })
				if i < len(idx) && all[idx[i]].op <= s.op {
					s.parent = idx[i]
				}
			}
			byCall[callKey{int32(s.conn), s.call}] = int32(len(all))
			dbIdx = append(dbIdx, int32(len(all)))
			all = append(all, s)
		}
	}
	sort.Slice(dbIdx, func(i, j int) bool { return all[dbIdx[i]].start < all[dbIdx[j]].start })
	// Leaves: sweep each shard's store and device spans, in start order,
	// against the db spans, keeping the set of db spans still open.
	for sh := 0; sh < nShards; sh++ {
		leaves := append(append([]span(nil), t.store[sh].s...), t.dev[sh].s...)
		sort.Slice(leaves, func(i, j int) bool { return leaves[i].start < leaves[j].start })
		var open []int32
		next := 0
		for _, lf := range leaves {
			for next < len(dbIdx) && all[dbIdx[next]].start <= lf.start {
				open = append(open, dbIdx[next])
				next++
			}
			keep := open[:0]
			lf.parent = -1
			if p, ok := byCall[callKey{int32(lf.conn), lf.call}]; ok && lf.call >= 0 {
				lf.parent = p
				lf.op, lf.nops = all[p].op, all[p].nops
				all = append(all, lf)
				continue
			}
			cands := 0
			for _, d := range open {
				if all[d].end < lf.start {
					continue
				}
				keep = append(keep, d)
				if all[d].shards&(1<<sh) != 0 && all[d].end >= lf.end {
					lf.parent = d // open is in start order: the last match started latest
					cands++
				}
			}
			open = keep
			if cands > 1 {
				t.ambiguous++
			}
			if lf.parent < 0 {
				for p := phases - 1; p >= 0; p-- {
					if all[p].name == spPhase && all[p].start <= lf.start && all[p].end >= lf.end {
						lf.parent = int32(p)
						break
					}
				}
			} else {
				lf.conn, lf.op, lf.nops = all[lf.parent].conn, all[lf.parent].op, all[lf.parent].nops
			}
			all = append(all, lf)
		}
	}
	return all
}

// selfTimes returns, per span, its duration minus the part of its
// interval its children cover (overlapping children counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, hi := int64(0), s.start
		for _, k := range ks {
			lo, end := max(spans[k].start, hi), min(spans[k].end, s.end)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// writeSpans writes one line per span:
// index,name,start_ns,end_ns,parent,conn,op,nops,bytes.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("index,name,start_ns,end_ns,parent,conn,op,nops,bytes\n")
	var b []byte
	for i, s := range spans {
		b = strconv.AppendInt(b[:0], int64(i), 10)
		b = append(b, ',')
		b = append(b, spanNames[s.name]...)
		for _, v := range [...]int64{s.start, s.end, int64(s.parent), int64(s.conn), int64(s.op), int64(s.nops), int64(s.bytes)} {
			b = append(b, ',')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, '\n')
		w.Write(b)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
