package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"unixhash/internal/buffer"
	"unixhash/internal/core"
	"unixhash/internal/db"
	"unixhash/internal/hashfunc"
	"unixhash/internal/pagefile"
	"unixhash/internal/server"
	"unixhash/internal/wal"
)

// The probe pass times each layer's public functions directly, to split
// what interposition cannot: a span around db.GetBuf holds routing,
// hashing, page search and pool bookkeeping in one number. Every probe
// is a fixed amount of work (no calibration to host speed), repeated in
// batches whose median is reported, and none depends on the workload:
// a layer's probe moves only when that layer's code does.

const (
	probeKeys    = 20_000
	probeBatches = 5
)

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// perIter runs f over n iterations, probeBatches times, and returns the
// median batch's nanoseconds per iteration.
func perIter(n int, f func(i int)) float64 {
	var per []float64
	for b := 0; b < probeBatches; b++ {
		st := now()
		for i := 0; i < n; i++ {
			f(b*n + i)
		}
		per = append(per, float64(now()-st)/float64(n))
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// medianCall times each call of f separately and returns the median in
// nanoseconds; for calls long enough that two clock reads do not matter.
func medianCall(n int, f func(i int)) float64 {
	ns := make([]int64, n)
	for i := range ns {
		st := now()
		f(i)
		ns[i] = now() - st
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return float64(quantile(ns, 0.5))
}

func probeKey(i int) []byte { return appendKey(nil, uint32(i)) }

var probeOpts = core.Options{Bsize: bsize, Ffactor: ffactor, CacheSize: 64 << 20}

// runProbes adds every probe metric to r. Files it needs live under dir.
func runProbes(r *result, dir string) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	keys := make([][]byte, probeKeys)
	absent := make([][]byte, probeKeys)
	for i := range keys {
		keys[i], absent[i] = probeKey(i), probeKey(absentBase+i)
	}
	var val [valueLen]byte
	fillValue(&val, 0, 0, 1)
	order := rng(1)

	// hashfunc
	r.add("hashfunc.default_ns_per_key", "ns", perIter(400_000, func(i int) {
		sink += uint64(hashfunc.Default(keys[i%probeKeys]))
	}))

	// core on a memory-resident table, and db routing over it.
	opts := probeOpts
	t, err := core.Open("", &opts)
	if err != nil {
		return err
	}
	defer t.Close()
	sharded, err := db.OpenSharded("", nShards, &db.Config{Hash: &probeOpts})
	if err != nil {
		return err
	}
	defer sharded.Close()
	for _, k := range keys {
		if err := t.Put(k, val[:]); err != nil {
			return err
		}
		if err := sharded.Put(k, val[:]); err != nil {
			return err
		}
	}
	var buf []byte
	get := func(f func(key, dst []byte) ([]byte, error), from [][]byte) float64 {
		return perIter(100_000, func(int) {
			v, _ := f(from[order.intn(probeKeys)], buf) // a miss is a result here, not a failure
			buf = v[:0]
		})
	}
	hit := get(t.GetBuf, keys)
	r.add("core.get_hit_ns", "ns", hit)
	r.add("core.get_miss_ns", "ns", get(t.GetBuf, absent))
	r.add("db.route_ns_per_op", "ns", get(sharded.GetBuf, keys)-hit)
	var perr error
	r.add("core.put_ns", "ns", perIter(50_000, func(int) {
		if err := t.Put(keys[order.intn(probeKeys)], val[:]); err != nil {
			perr = err
		}
	}))
	const batch = 64
	pairs := make([]core.Pair, batch)
	r.add("core.putbatch_ns_per_pair", "ns", perIter(400, func(i int) {
		for j := range pairs {
			pairs[j] = core.Pair{Key: probeKey(newKeyBase + i*batch + j), Data: val[:]}
		}
		if err := t.PutBatch(pairs); err != nil {
			perr = err
		}
	})/batch)

	// A transaction commit with nothing but CPU under it. The memory
	// device reallocates and copies its whole buffer on every append
	// that grows it, so the log is kept short: a checkpoint (Sync)
	// truncates it every 64th call, which the median does not see.
	wopts := probeOpts
	wopts.WALDevice = wal.NewMemDevice()
	wt, err := core.Open("", &wopts)
	if err != nil {
		return err
	}
	defer wt.Close()
	r.add("core.txn_commit_us", "us", medianCall(10_000, func(i int) {
		if i%64 == 0 {
			if err := wt.Sync(); err != nil {
				perr = err
			}
		}
		x, err := wt.Begin()
		if err == nil {
			x.Put(keys[i%probeKeys], val[:])
			x.Put(keys[(i+1)%probeKeys], val[:])
			x.Delete(keys[(i+2)%probeKeys])
			err = x.Commit()
		}
		if err != nil {
			perr = err
		}
	})/1e3)

	// buffer over a real page file: pool hits, then faults with eviction.
	const pages = 2048
	fs, err := pagefile.OpenFile(filepath.Join(dir, "probe.pages"), bsize, pagefile.CostModel{})
	if err != nil {
		return err
	}
	defer fs.Close()
	page := make([]byte, bsize)
	identity := func(a buffer.Addr) uint32 { return a.N }
	r.add("pagefile.writepage_us", "us", medianCall(pages, func(i int) {
		if err := fs.WritePage(uint32(i), page); err != nil {
			perr = err
		}
	})/1e3)
	r.add("pagefile.sync_us", "us", medianCall(20, func(i int) {
		for j := 0; j < 64; j++ {
			fs.WritePage(uint32((i*64+j)%pages), page)
		}
		if err := fs.Sync(); err != nil {
			perr = err
		}
	})/1e3)
	r.add("pagefile.readpage_us", "us", perIter(20_000, func(int) {
		if err := fs.ReadPage(uint32(order.intn(pages)), page); err != nil {
			perr = err
		}
	})/1e3)
	touch := func(p *buffer.Pool) func(int) {
		return func(i int) {
			b, err := p.Get(buffer.Addr{N: uint32(i % pages)}, nil, false)
			if err != nil {
				perr = err
				return
			}
			p.Put(b)
		}
	}
	big := buffer.New(fs, pages*bsize, identity)
	for i := 0; i < pages; i++ {
		touch(big)(i)
	}
	r.add("buffer.get_hit_ns", "ns", perIter(200_000, touch(big)))
	r.add("buffer.get_fault_us", "us", perIter(20_000, touch(buffer.New(fs, 64<<10, identity)))/1e3)

	// wal: marshal+append on memory, then the real fsync.
	ops := []wal.Op{{Key: keys[0], Data: val[:]}, {Key: keys[1], Data: val[:]}, {Delete: true, Key: keys[2]}}
	// Grown once to its final size, for the reason above: the appends
	// then land inside the buffer and cost what marshalling costs.
	md := wal.NewMemDevice()
	if _, err := md.WriteAt(make([]byte, 64<<20), 0); err != nil {
		return err
	}
	ml, _, err := wal.Open(md, wal.CostModel{}, nil)
	if err != nil {
		return err
	}
	r.add("wal.append_ns_per_commit", "ns", perIter(20_000, func(int) {
		if _, _, err := ml.Append(ops); err != nil {
			perr = err
		}
	}))
	fd, err := wal.OpenFileDevice(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer fd.Close()
	fl, _, err := wal.Open(fd, wal.CostModel{}, nil)
	if err != nil {
		return err
	}
	var end int64
	r.add("wal.syncto_us", "us", medianCall(200, func(int) {
		// The append is inside the timed call, but at ~1 us it is lost
		// in an fsync of hundreds.
		if _, end, err = fl.Append(ops); err == nil {
			err = fl.SyncTo(end)
		}
		if err != nil {
			perr = err
		}
	})/1e3)

	// server: the floor under every unpipelined request.
	srv, err := server.Serve("127.0.0.1:0", server.Options{DB: sharded})
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.close()
	r.add("server.ping_rtt_us", "us", medianCall(5_000, func(int) {
		if rp, err := c.do(bPING); err != nil || rp.kind != '+' {
			perr = fmt.Errorf("PING: %c %v", rp.kind, err)
		}
	})/1e3)
	return perr
}
