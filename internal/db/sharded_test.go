package db

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"unixhash/internal/core"
)

func TestShardedBasicOps(t *testing.T) {
	s, err := OpenSharded("", 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NShards() != 8 {
		t.Fatalf("NShards = %d", s.NShards())
	}

	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, err := s.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get key-%04d = %q, %v", i, v, err)
		}
	}
	if _, err := s.Get([]byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent key = %v, want ErrNotFound", err)
	}
	if err := s.PutNew([]byte("key-0000"), nil); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("PutNew existing = %v, want ErrKeyExists", err)
	}
	if err := s.Delete([]byte("key-0000")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n-1 {
		t.Fatalf("Len after delete = %d", s.Len())
	}

	// Seq visits every pair exactly once across all shards.
	seen := map[string]bool{}
	c := s.Seq()
	for c.Next() {
		seen[string(c.Key())] = true
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if len(seen) != n-1 {
		t.Fatalf("Seq saw %d keys, want %d", len(seen), n-1)
	}

	// Every shard got a meaningful share: the router must not funnel a
	// sequential key set into a few shards.
	keys := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%04d", i)))
	}
	counts := shardKeys(keys, 8)
	if counts[0] < n/8/4 {
		t.Fatalf("unbalanced shard distribution: %v", counts)
	}
}

func TestShardedPutBatchAndStats(t *testing.T) {
	s, err := OpenSharded("", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 1000
	pairs := make([]Pair, 0, n+1)
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair{Key: []byte(fmt.Sprintf("b%05d", i)), Data: []byte("v")})
	}
	// In-batch duplicate: last occurrence must win, whichever shard it
	// routes to.
	pairs = append(pairs, Pair{Key: []byte("b00000"), Data: []byte("winner")})
	if err := s.PutBatch(pairs); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if v, _ := s.Get([]byte("b00000")); string(v) != "winner" {
		t.Fatalf("duplicate key = %q, want winner", v)
	}

	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Method != Hash || st.Hash == nil {
		t.Fatalf("sharded stats method = %+v", st.Method)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("Shards breakdown has %d entries, want 4", len(st.Shards))
	}
	var keys int64
	for i, sh := range st.Shards {
		if sh.Hash == nil {
			t.Fatalf("shard %d stats missing hash detail", i)
		}
		if sh.Keys == 0 {
			t.Fatalf("shard %d is empty: distribution broken", i)
		}
		keys += sh.Keys
	}
	if keys != st.Keys || st.Keys != int64(n) {
		t.Fatalf("aggregate keys %d, sum of shards %d, want %d", st.Keys, keys, n)
	}
	if st.Hash.Puts == 0 || st.Hash.Buckets == 0 {
		t.Fatalf("aggregate hash detail not folded: %+v", st.Hash)
	}
	if st.CacheHitRatio < 0 || st.CacheHitRatio > 1 {
		t.Fatalf("cache hit ratio %v out of range", st.CacheHitRatio)
	}
}

func TestShardedOptionValidation(t *testing.T) {
	if _, err := OpenSharded("", 0, nil); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("0 shards = %v, want ErrBadOptions", err)
	}
	if _, err := OpenSharded("", MaxShards+1, nil); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("too many shards = %v, want ErrBadOptions", err)
	}
	if _, err := OpenSharded("", 2, &Config{Hash: &core.Options{Bsize: 3}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("bad bsize = %v, want ErrBadOptions", err)
	}
}

func TestShardedPersistenceAndMarker(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sharded")
	s, err := OpenSharded(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("p%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Wrong shard count must refuse before any shard opens.
	if _, err := OpenSharded(dir, 8, nil); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("mismatched reopen = %v, want ErrShardMismatch", err)
	}

	s2, err := OpenSharded(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 200 {
		t.Fatalf("reopened Len = %d, want 200", s2.Len())
	}
	for i := 0; i < 200; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("p%03d", i))); err != nil {
			t.Fatalf("reopened Get p%03d: %v", i, err)
		}
	}
}

func TestShardedTxn(t *testing.T) {
	s, err := OpenSharded("", 4, &Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	x, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// Enough keys to touch several shards.
	for i := 0; i < 32; i++ {
		if err := x.Put([]byte(fmt.Sprintf("t%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing visible before commit.
	if s.Len() != 0 {
		t.Fatalf("Len before commit = %d", s.Len())
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 32 {
		t.Fatalf("Len after commit = %d", s.Len())
	}
	if err := x.Commit(); !errors.Is(err, core.ErrTxnDone) {
		t.Fatalf("reused txn = %v, want ErrTxnDone", err)
	}

	// Rollback leaves the database untouched.
	y, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := y.Put([]byte("rolled"), []byte("back")); err != nil {
		t.Fatal(err)
	}
	if err := y.Delete([]byte("t00")); err != nil {
		t.Fatal(err)
	}
	if err := y.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("rolled")); !errors.Is(err, ErrNotFound) {
		t.Fatal("rolled-back put is visible")
	}
	if _, err := s.Get([]byte("t00")); err != nil {
		t.Fatal("rolled-back delete was applied")
	}
}

func TestBeginAcrossMethods(t *testing.T) {
	// Hash without WAL: Begin names the missing option.
	h, err := Open("", Hash, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// The Txn is a nil interface, not a nil *core.Txn inside one.
	if txn, err := h.Begin(); !errors.Is(err, core.ErrNoWAL) || txn != nil {
		t.Fatalf("hash without WAL Begin = %#v, %v; want nil, ErrNoWAL", txn, err)
	}
	if _, err := OpenShardedBeginProbe(); err != nil {
		t.Fatal(err)
	}

	// Hash with WAL: a real transaction through the interface.
	hw, err := Open("", Hash, &Config{Hash: &core.Options{WAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer hw.Close()
	x, err := hw.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := hw.Get([]byte("k")); string(v) != "v" {
		t.Fatalf("committed value = %q", v)
	}
}

// OpenShardedBeginProbe pins that a sharded database without WAL
// reports the missing option at Begin, not at first use.
func OpenShardedBeginProbe() (struct{}, error) {
	s, err := OpenSharded("", 2, nil)
	if err != nil {
		return struct{}{}, err
	}
	defer s.Close()
	if _, err := s.Begin(); !errors.Is(err, core.ErrNoWAL) {
		return struct{}{}, fmt.Errorf("sharded Begin without WAL = %v, want ErrNoWAL", err)
	}
	return struct{}{}, nil
}

func TestShardedTelemetry(t *testing.T) {
	s, err := OpenSharded("", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 300; i++ {
		if err := s.Put([]byte(fmt.Sprintf("m%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := ServeTelemetry(s, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// One merged metrics page: the hash_puts_total series must carry
	// every shard's puts (plain counters share one cell), and the
	// func-backed buffer series aggregate across the three pools.
	prom := get("/metrics")
	if !strings.Contains(prom, "hash_puts_total 300") {
		t.Fatalf("/metrics missing aggregated puts:\n%.400s", prom)
	}
	if !strings.Contains(prom, "buffer_capacity") {
		t.Fatalf("/metrics missing buffer series:\n%.400s", prom)
	}

	stats := get("/stats")
	if !strings.Contains(stats, `"Shards"`) {
		t.Fatalf("/stats missing per-shard breakdown:\n%.400s", stats)
	}

	heat := get("/debug/heatmap")
	if !strings.Contains(heat, `"shard": 2`) {
		t.Fatalf("/debug/heatmap missing shard entries:\n%.400s", heat)
	}
}
