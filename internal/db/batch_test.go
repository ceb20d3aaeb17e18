package db

import (
	"fmt"
	"testing"
)

// TestPutBatchAllMethods: the batched verb behaves identically to a Put
// loop on every DB shape — a single table amortizes through
// core.PutBatch, a sharded database splits the batch per shard, but the
// application cannot tell.
func TestPutBatchAllMethods(t *testing.T) {
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			d, err := im.open("")
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			const n = 500
			pairs := make([]Pair, n)
			for i := range pairs {
				key := []byte(fmt.Sprintf("key-%04d", i))
				pairs[i] = Pair{Key: key, Data: []byte(fmt.Sprintf("val-%04d", i))}
			}
			if err := d.PutBatch(pairs); err != nil {
				t.Fatal(err)
			}
			if got := d.Len(); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			for i, p := range pairs {
				v, err := d.Get(p.Key)
				if err != nil {
					t.Fatalf("Get %d: %v", i, err)
				}
				if string(v) != fmt.Sprintf("val-%04d", i) {
					t.Fatalf("Get %d = %q", i, v)
				}
			}
			// Replaces through the batch verb, like a Put loop.
			if err := d.PutBatch([]Pair{{Key: pairs[7].Key, Data: []byte("rewritten")}}); err != nil {
				t.Fatal(err)
			}
			if v, _ := d.Get(pairs[7].Key); string(v) != "rewritten" {
				t.Fatalf("after replace batch: %q", v)
			}
			if got := d.Len(); got != n {
				t.Fatalf("Len after replace = %d, want %d", got, n)
			}
		})
	}
}

// TestPutBatchEmpty: an empty batch is a no-op on every DB shape.
func TestPutBatchEmpty(t *testing.T) {
	for _, im := range implementors {
		d, err := im.open("")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PutBatch(nil); err != nil {
			t.Errorf("%s: PutBatch(nil) = %v", im.name, err)
		}
		d.Close()
	}
}
