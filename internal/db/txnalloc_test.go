package db

import (
	"bytes"
	"testing"

	"unixhash/internal/core"
	"unixhash/internal/wal"
)

// TestShardedTxnAllocs: a transaction of the shape benchmark/'s
// txn_durable sends (two PUTs and a PUT or a DEL, 13-byte keys, 100-byte
// values) on a logged 2-shard database allocates only the Txn and the
// growth of its two lists: the bytes, copied into one buffer (4 blocks
// for three PUTs' 339 bytes, 3 for 239), and the ops (3). The log owner
// partitions the ops into a pooled list per shard, and each shard
// applies its share from a pooled write set. Measured before: 16 and 15,
// a key and a value copy per op, the op list, the partition and a write
// set per shard.
func TestShardedTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s, err := OpenSharded("", 2, &Config{Hash: &core.Options{WALDevice: wal.NewMemDevice()}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := [][]byte{[]byte("key-000000001"), []byte("key-000000002"), []byte("key-000000007")}
	if got := shardKeys(keys, 2); got[0] == 0 || got[1] == 0 {
		t.Fatalf("keys do not span both shards: %v", got)
	}
	v := bytes.Repeat([]byte{'v'}, 100)
	for _, c := range []struct {
		del  bool
		want float64
	}{{false, 8}, {true, 7}} {
		del := c.del
		commit := func() {
			x, err := s.Begin()
			if err == nil {
				err = x.Put(keys[0], v)
			}
			if err == nil {
				err = x.Put(keys[1], v)
			}
			if err == nil && del {
				err = x.Delete(keys[2])
			} else if err == nil {
				err = x.Put(keys[2], v)
			}
			if err == nil {
				err = x.Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		commit() // the keys are in: every later commit is an overwrite
		if allocs := testing.AllocsPerRun(200, commit); allocs > c.want {
			t.Errorf("del=%v: a 3-op transaction allocates %v, want %v", del, allocs, c.want)
		}
	}
}
