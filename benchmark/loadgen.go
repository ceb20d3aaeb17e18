package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark takes; now() is
// monotonic nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// sliceLen is the length of the time slices a run is cut into. The
// metrics a burst of host noise can move - throughput, CPU per op, tail
// latency - are computed per slice and reported as the median slice.
const sliceLen = int64(500 * time.Millisecond)

// sample is one answered op.
type sample struct {
	ns    int64 // latency
	slice int32 // the slice of the run it was answered in
	class class
}

// connResult is what one connection's run produced.
type connResult struct {
	samples   []sample
	done      atomic.Int64  // ops answered so far, read by the sampler
	late      []int64       // open loop: send time - due time, ns
	kinds     [nOpKinds]int // ops generated, by kind
	userBytes int64         // key+value bytes of every write sent
	txnBytes  int64         // the part of userBytes sent inside transactions
	attempted int
	failed    int
	firstErr  string
}

// fail counts n failed ops and keeps the first reason.
func (r *connResult) fail(n int, format string, a ...any) {
	r.failed += n
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, a...)
	}
}

// count books o under its kind and adds the user bytes it writes.
func (r *connResult) count(o *op) {
	r.kinds[o.kind]++
	switch o.kind {
	case opPut, opPutNew, opReinsert:
		r.userBytes += keyLen + valueLen
	case opTxn:
		n := int64(3*keyLen + 2*valueLen)
		if !o.del {
			n += valueLen
		}
		r.userBytes += n
		r.txnBytes += n
	}
}

// checkReplies reads and verifies the replies o owes; it returns false
// if any disagrees with the model. A transport error is returned as is:
// the stream position is lost and the connection is done.
func checkReplies(c *client, o *op, seed uint64, scratch *[valueLen]byte) (bool, string, error) {
	if o.kind == opTxn {
		ok, why := true, ""
		for i, want := range [5]string{"OK", "QUEUED", "QUEUED", "QUEUED", "OK"} {
			rp, err := c.readReply()
			if err != nil {
				return false, "", err
			}
			if ok && (rp.kind != '+' || string(rp.bulk) != want) {
				ok, why = false, fmt.Sprintf("txn reply %d: want +%s, got %c%s", i, want, rp.kind, rp.bulk)
			}
		}
		return ok, why, nil
	}
	rp, err := c.readReply()
	if err != nil {
		return false, "", err
	}
	s := o.subs[0]
	switch o.kind {
	case opGet:
		fillValue(scratch, seed, s.id, s.ver)
		if rp.kind != '$' || rp.null || !bytes.Equal(rp.bulk, scratch[:]) {
			return false, fmt.Sprintf("GET key %d v%d: wrong reply %c (%d bytes, nil=%v) %.40q", s.id, s.ver, rp.kind, len(rp.bulk), rp.null, rp.bulk), nil
		}
	case opGetAbsent:
		if rp.kind != '$' || !rp.null {
			return false, fmt.Sprintf("GET absent key %d: want nil, got %c %.40q", s.id, rp.kind, rp.bulk), nil
		}
	case opDel:
		if rp.kind != ':' || rp.n != 1 {
			return false, fmt.Sprintf("DEL key %d: want :1, got %c%d %.40q", s.id, rp.kind, rp.n, rp.bulk), nil
		}
	default:
		if rp.kind != '+' || string(rp.bulk) != "OK" {
			return false, fmt.Sprintf("PUT key %d: want +OK, got %c%.40q", s.id, rp.kind, rp.bulk), nil
		}
	}
	return true, "", nil
}

// runConn drives n operations of g over c. Closed loop: windows of
// sp.depth requests are written in one flush and their replies read
// back; an op's latency is its reply's read time minus the window's
// flush time. Open loop (depth 1): op i is due at start + i*interval,
// is sent then or as soon as the previous reply is in, and its latency
// runs from the due time, so a stall is charged to every request it
// delays. deadline (0 = none) stops a calibration run early.
func runConn(res *connResult, c *client, g *gen, n int, start, deadline int64, conn int, tr *tracer) {
	sp := g.sp
	enc := encoder{seed: g.seed}
	var scratch [valueLen]byte
	ops := make([]op, sp.depth)
	interval := float64(0)
	if sp.open {
		interval = 1e9 * nConns / float64(sp.opsPerSecond)
	}
	for sent := 0; sent < n && (deadline == 0 || now() < deadline); {
		w := min(sp.depth, n-sent)
		c.out = c.out[:0]
		for i := 0; i < w; i++ {
			g.next(&ops[i])
			c.out = enc.appendOp(c.out, &ops[i])
			res.count(&ops[i])
		}
		from := int64(0)
		if sp.open {
			due := start + int64(float64(sent)*interval)
			sleepUntil(due)
			from = due
		}
		t0 := now()
		if sp.open {
			res.late = append(res.late, t0-from)
		} else {
			from = t0
		}
		res.attempted += w
		if err := c.flush(); err != nil {
			// The connection is gone: every op not yet answered failed.
			res.attempted = n
			res.fail(n-sent, "write: %v", err)
			break
		}
		var t1 int64
		for i := 0; i < w; i++ {
			ok, why, err := checkReplies(c, &ops[i], g.seed, &scratch)
			if err != nil {
				res.attempted = n
				res.fail(n-sent-i, "read: %v", err)
				tr.clientSpan(conn, sent, w, t0, now())
				return
			}
			t1 = now()
			if !ok {
				res.fail(1, "%s", why)
				continue // a failed op has no latency: it misses every bound
			}
			res.samples = append(res.samples, sample{t1 - from, int32((t1 - start) / sliceLen), ops[i].kind.class()})
		}
		res.done.Add(int64(w))
		tr.clientSpan(conn, sent, w, t0, t1)
		sent += w
	}
}

// sleepUntil blocks until the monotonic clock reads t. A timer wake-up
// on a virtual host is late by tens of microseconds at the median and
// by a millisecond at p99 - as long as the requests being paced take -
// so it sleeps in the kernel only to a margin before t (nanosleep with
// the thread's timer slack cut to the minimum; a Go timer is
// millisecond-accurate at best) and covers the margin polling the clock,
// yielding the CPU on every turn so that a server thread that becomes
// runnable gets it. Polling all the time instead was measured to triple
// p99: the generator then holds a CPU the server needs.
func sleepUntil(t int64) {
	const (
		prSetTimerslack = 29
		margin          = 60_000 // ns polled before t
	)
	for {
		d := t - now()
		switch {
		case d <= 0:
			return
		case d > margin:
			// Goroutines move between threads, so the slack is set each time.
			syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
			ts := syscall.NsecToTimespec(d - margin)
			syscall.Nanosleep(&ts, nil)
		default:
			syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
	}
}

// runResult is the merged outcome of all connections of one phase.
type runResult struct {
	lat       [nClasses]latency
	all       latency // every op, whatever its class
	late      latency
	opsPerSec float64 // median slice; the whole run when it has under three full slices
	cpuPerOp  float64 // ns of server CPU per op, median slice; 0 without a CPU reader
	p99us     float64 // all ops: the median slice's p99
	slices    int     // full slices behind the three above
	kinds     [nOpKinds]int
	userBytes int64
	txnBytes  int64
	attempted int
	failed    int
	errs      []string
	elapsed   time.Duration
	gens      []*gen
}

// tick is one reading the sampler takes at a slice boundary.
type tick struct {
	at   int64
	done int64
	cpu  time.Duration
}

// drive runs sp's measured phase over one connection per generator:
// ops operations in total, split evenly. cpu, when not nil, reads the
// server's CPU time so far.
func drive(addr string, sp *spec, seed uint64, keys, ops int, limit time.Duration, cpu func() (time.Duration, error), tr *tracer) (*runResult, error) {
	clients := make([]*client, nConns)
	gens := make([]*gen, nConns)
	for i := range clients {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i], gens[i] = c, newGen(sp, seed, i, keys)
	}
	res := make([]*connResult, nConns)
	for i := range res {
		res[i] = &connResult{}
	}
	read := func() (tick, error) {
		t := tick{at: now()}
		for _, r := range res {
			t.done += r.done.Load()
		}
		var err error
		if cpu != nil {
			t.cpu, err = cpu()
		}
		return t, err
	}
	first, err := read()
	if err != nil {
		return nil, err
	}
	start := first.at
	deadline := int64(0)
	if limit > 0 {
		deadline = start + int64(limit)
	}
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runConn(res[i], clients[i], gens[i], ops/nConns, start, deadline, i, tr)
		}(i)
	}
	// The sampler reads the op count and the server's CPU time at every
	// slice boundary until the connections are done.
	ticks := []tick{first}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	var serr error
	for running := true; running; {
		select {
		case <-finished:
			running = false
		case <-time.After(time.Duration(start + int64(len(ticks))*sliceLen - now())):
			// Woken a little late, like any timer: a slice is as long
			// as the readings that bound it say, not sliceLen exactly.
			t, err := read()
			if err != nil {
				serr = err
			}
			ticks = append(ticks, t)
		}
	}
	if serr != nil {
		return nil, serr
	}
	last, err := read()
	if err != nil {
		return nil, err
	}

	out := &runResult{elapsed: time.Duration(last.at - start), gens: gens, slices: len(ticks) - 1}
	var byClass [nClasses][]int64
	var all, late []int64
	bySlice := make([][]int64, len(ticks))
	for _, r := range res {
		for _, s := range r.samples {
			byClass[s.class] = append(byClass[s.class], s.ns)
			all = append(all, s.ns)
			if int(s.slice) < out.slices {
				bySlice[s.slice] = append(bySlice[s.slice], s.ns)
			}
		}
		late = append(late, r.late...)
		for k, n := range r.kinds {
			out.kinds[k] += n
		}
		out.userBytes += r.userBytes
		out.txnBytes += r.txnBytes
		out.attempted += r.attempted
		out.failed += r.failed
		if r.firstErr != "" {
			out.errs = append(out.errs, r.firstErr)
		}
	}
	for k := range byClass {
		out.lat[k] = summarize(byClass[k])
	}
	out.all = summarize(all)
	out.late = summarize(late)

	// Whole-run figures, replaced by the median slice when there are
	// enough full slices to take one.
	done := float64(max(out.attempted-out.failed, 1))
	out.opsPerSec = done / out.elapsed.Seconds()
	out.cpuPerOp = float64(last.cpu-first.cpu) / done
	out.p99us = out.all.p99us
	if out.slices >= 3 {
		var rate, cpuPer, p99 []float64
		for i := 0; i < out.slices; i++ {
			a, b := ticks[i], ticks[i+1]
			if n := float64(b.done - a.done); n > 0 {
				rate = append(rate, n/(float64(b.at-a.at)/1e9))
				cpuPer = append(cpuPer, float64(b.cpu-a.cpu)/n)
			}
			if l := summarize(bySlice[i]); l.hasP99 {
				p99 = append(p99, l.p99us)
			}
		}
		if len(rate) >= 3 {
			out.opsPerSec, out.cpuPerOp = spreadOf(rate).median, spreadOf(cpuPer).median
		}
		if len(p99) >= 3 {
			out.p99us = spreadOf(p99).median
		}
	}
	return out, nil
}

// preload stores keys keys at version 1 through the BATCH verb, each
// connection loading the range it will own.
func preload(addr string, seed uint64, keys int) error {
	errs := make([]error, nConns)
	var wg sync.WaitGroup
	for conn := 0; conn < nConns; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			errs[conn] = preloadRange(addr, seed, conn, keys/nConns)
		}(conn)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// preloadRange loads connection conn's per preloaded keys.
func preloadRange(addr string, seed uint64, conn, per int) error {
	const perBatch = 1000
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	var val [valueLen]byte
	args := make([][]byte, 0, 1+2*perBatch)
	kv := make([]byte, 0, perBatch*(keyLen+valueLen)) // never regrown: args alias it
	for lo := 0; lo < per; lo += perBatch {
		args, kv = append(args[:0], bBATCH), kv[:0]
		n := min(perBatch, per-lo)
		for i := 0; i < n; i++ {
			id := uint32(conn*per + lo + i)
			fillValue(&val, seed, id, 1)
			kv = appendKey(kv, id)
			kv = append(kv, val[:]...)
			pair := kv[len(kv)-keyLen-valueLen:]
			args = append(args, pair[:keyLen], pair[keyLen:])
		}
		rp, err := c.do(args...)
		if err != nil {
			return err
		}
		if rp.kind != ':' || rp.n != int64(n) {
			return fmt.Errorf("BATCH of %d: got %c%d %q", n, rp.kind, rp.n, rp.bulk)
		}
	}
	return nil
}

// serverKeys asks STATS for the key count. Only the fields the
// benchmark reads are decoded, so a STATS document that gains, loses or
// renames other members still parses; a missing Keys reads as absent.
func serverKeys(c *client) (int64, bool, error) {
	rp, err := c.do(bSTATS)
	if err != nil {
		return 0, false, err
	}
	if rp.kind != '$' || rp.null {
		return 0, false, fmt.Errorf("STATS: got %c%q", rp.kind, rp.bulk)
	}
	var doc struct{ Keys *int64 }
	if err := json.Unmarshal(rp.bulk, &doc); err != nil {
		return 0, false, fmt.Errorf("STATS: %w", err)
	}
	if doc.Keys == nil {
		return 0, false, nil
	}
	return *doc.Keys, true, nil
}

// verifyAfterRestart checks a reopened server against the models: the
// STATS key count, and a seeded 5 % sample of every key range the run
// touched, fetched in pipelined windows. It returns (checked, wrong).
func verifyAfterRestart(addr string, gens []*gen, seed uint64) (checked, wrong int, firstErr string, err error) {
	c, err := dial(addr)
	if err != nil {
		return 0, 0, "", err
	}
	defer c.close()
	live := 0
	for _, g := range gens {
		live += g.live
	}
	checked++
	if keys, ok, err := serverKeys(c); err != nil {
		return checked, wrong, "", err
	} else if ok && keys != int64(live) {
		wrong++
		firstErr = fmt.Sprintf("after restart STATS reports %d keys, model holds %d", keys, live)
	}
	r := rng(seed ^ 0x5ca1ab1e)
	var scratch [valueLen]byte
	var key [keyLen]byte
	const window = 256
	ids := make([]sub, 0, window)
	flush := func() error {
		if err := c.flush(); err != nil {
			return err
		}
		for _, s := range ids {
			rp, err := c.readReply()
			if err != nil {
				return err
			}
			checked++
			good := rp.kind == '$' && rp.null
			if s.ver != 0 {
				fillValue(&scratch, seed, s.id, s.ver)
				good = rp.kind == '$' && !rp.null && bytes.Equal(rp.bulk, scratch[:])
			}
			if !good {
				wrong++
				if firstErr == "" {
					firstErr = fmt.Sprintf("after restart key %d: model v%d, server %c nil=%v %.40q", s.id, s.ver, rp.kind, rp.null, rp.bulk)
				}
			}
		}
		ids = ids[:0]
		return nil
	}
	for _, g := range gens {
		ranges := [2][2]uint32{{g.base, g.base + uint32(len(g.vers))}, {g.newBase, g.newBase + g.nNew}}
		for _, rg := range ranges {
			for id := rg[0]; id < rg[1]; id++ {
				if r.intn(20) != 0 {
					continue
				}
				ids = append(ids, sub{id, g.expect(id)})
				c.out = appendCmd(c.out, bGET, appendKey(key[:0], id))
				if len(ids) == window {
					if err := flush(); err != nil {
						return checked, wrong, firstErr, err
					}
				}
			}
		}
	}
	return checked, wrong, firstErr, flush()
}
