package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestPage(size int) page {
	p := page(make([]byte, size))
	initPage(p)
	return p
}

func TestPageInit(t *testing.T) {
	p := newTestPage(256)
	if p.nslots() != 0 || p.low() != 256 {
		t.Fatalf("fresh page: nslots=%d low=%d", p.nslots(), p.low())
	}
	if p.freeSpace() != 256-slotBaseFor(256) {
		t.Fatalf("freeSpace = %d", p.freeSpace())
	}
	if p.nentries() != 0 || p.ovflLink() != 0 {
		t.Fatal("fresh page not empty")
	}
}

func TestPageAddAndIterate(t *testing.T) {
	p := newTestPage(256)
	pairs := [][2]string{{"alpha", "1"}, {"beta", "22"}, {"gamma", "333"}}
	for _, kv := range pairs {
		if !p.fitsRegular(len(kv[0]), len(kv[1])) {
			t.Fatalf("pair %q does not fit", kv[0])
		}
		p.addRegular([]byte(kv[0]), []byte(kv[1]))
	}
	if p.nentries() != len(pairs) {
		t.Fatalf("nentries = %d, want %d", p.nentries(), len(pairs))
	}
	var got [][2]string
	err := p.forEach(func(i int, e entry) bool {
		if e.kind != entryRegular {
			t.Fatalf("entry %d kind = %v", i, e.kind)
		}
		got = append(got, [2]string{string(e.key), string(e.data)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, kv := range pairs {
		if got[i] != kv {
			t.Fatalf("entry %d = %v, want %v", i, got[i], kv)
		}
	}
}

func TestPageOvflLink(t *testing.T) {
	p := newTestPage(128)
	p.addRegular([]byte("k"), []byte("v"))
	if err := p.setOvflLink(makeOaddr(2, 7)); err != nil {
		t.Fatal(err)
	}
	if got := p.ovflLink(); got != makeOaddr(2, 7) {
		t.Fatalf("ovflLink = %v", got)
	}
	// Adding a pair keeps the link last.
	p.addRegular([]byte("k2"), []byte("v2"))
	if got := p.ovflLink(); got != makeOaddr(2, 7) {
		t.Fatalf("ovflLink after add = %v", got)
	}
	n := 0
	if err := p.forEach(func(i int, e entry) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("forEach visited %d entries, want 2", n)
	}
	// Rewriting the link keeps one link.
	if err := p.setOvflLink(makeOaddr(3, 1)); err != nil {
		t.Fatal(err)
	}
	if got := p.ovflLink(); got != makeOaddr(3, 1) {
		t.Fatalf("rewritten ovflLink = %v", got)
	}
	p.clearOvflLink()
	if p.ovflLink() != 0 {
		t.Fatal("clearOvflLink left a link")
	}
	if p.nentries() != 2 {
		t.Fatalf("nentries after clear = %d", p.nentries())
	}
}

func TestPageBigRef(t *testing.T) {
	p := newTestPage(128)
	p.addRegular([]byte("a"), []byte("1"))
	p.addRef(makeOaddr(1, 3))
	p.addRegular([]byte("b"), []byte("2"))
	if p.nentries() != 3 {
		t.Fatalf("nentries = %d", p.nentries())
	}
	var kinds []entryKind
	if err := p.forEach(func(i int, e entry) bool {
		kinds = append(kinds, e.kind)
		if e.kind == entryBig && e.ref != makeOaddr(1, 3) {
			t.Fatalf("big ref = %v", e.ref)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []entryKind{entryRegular, entryBig, entryRegular}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

func TestPageRemoveEntry(t *testing.T) {
	p := newTestPage(256)
	keys := []string{"one", "two", "three", "four", "five"}
	for i, k := range keys {
		p.addRegular([]byte(k), []byte(fmt.Sprintf("v%d", i)))
	}
	// Remove the middle entry, then the first, then the last.
	if err := p.removeEntry(2); err != nil {
		t.Fatal(err)
	}
	if err := p.removeEntry(0); err != nil {
		t.Fatal(err)
	}
	if err := p.removeEntry(2); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := p.forEach(func(i int, e entry) bool {
		got = append(got, string(e.key)+"="+string(e.data))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"two=v1", "four=v3"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("remaining = %v, want %v", got, want)
	}
	// Free space must be fully recovered after removing the rest.
	if err := p.removeEntry(1); err != nil {
		t.Fatal(err)
	}
	if err := p.removeEntry(0); err != nil {
		t.Fatal(err)
	}
	if p.nentries() != 0 || p.freeSpace() != 256-slotBaseFor(256) {
		t.Fatalf("after removing all: nentries=%d free=%d", p.nentries(), p.freeSpace())
	}
}

func TestPageRemoveWithMixedEntries(t *testing.T) {
	p := newTestPage(256)
	p.addRegular([]byte("k0"), []byte("v0"))
	p.addRef(makeOaddr(1, 1))
	p.addRegular([]byte("k1"), []byte("v1"))
	if err := p.setOvflLink(makeOaddr(2, 2)); err != nil {
		t.Fatal(err)
	}
	p.addRegular([]byte("k2"), []byte("longer-value-2"))

	// Remove the big ref; the regular pairs and link survive.
	if err := p.removeEntry(1); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := p.forEach(func(i int, e entry) bool {
		got = append(got, string(e.key))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "k0" || got[1] != "k1" || got[2] != "k2" {
		t.Fatalf("keys after ref removal = %v", got)
	}
	if p.ovflLink() != makeOaddr(2, 2) {
		t.Fatalf("link lost: %v", p.ovflLink())
	}
	// Remove a regular pair before the others.
	if err := p.removeEntry(0); err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	if err := p.forEach(func(i int, e entry) bool {
		got = append(got, string(e.key)+"="+string(e.data))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "k1=v1" || got[1] != "k2=longer-value-2" {
		t.Fatalf("keys after pair removal = %v", got)
	}
}

func TestPageFillToCapacity(t *testing.T) {
	p := newTestPage(128)
	n := 0
	for {
		k := []byte(fmt.Sprintf("k%02d", n))
		v := []byte(fmt.Sprintf("v%02d", n))
		if !p.fitsRegular(len(k), len(v)) {
			break
		}
		p.addRegular(k, v)
		n++
	}
	if n == 0 {
		t.Fatal("nothing fit on a 128-byte page")
	}
	// The link reserve guarantees a link still fits on a "full" page.
	if err := p.setOvflLink(makeOaddr(1, 1)); err != nil {
		t.Fatalf("setOvflLink on full page: %v", err)
	}
	if p.nentries() != n {
		t.Fatalf("nentries = %d, want %d", p.nentries(), n)
	}
}

// TestPageRandomOps drives the page codec against a slice model.
func TestPageRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		size := []int{64, 128, 256, 1024}[rng.Intn(4)]
		p := newTestPage(size)
		type kv struct{ k, v []byte }
		var model []kv
		for op := 0; op < 300; op++ {
			if rng.Intn(3) != 0 || len(model) == 0 { // add
				k := randBytes(rng, 1+rng.Intn(10))
				v := randBytes(rng, rng.Intn(20))
				if p.fitsRegular(len(k), len(v)) {
					p.addRegular(k, v)
					model = append(model, kv{k, v})
				}
			} else { // remove
				i := rng.Intn(len(model))
				if err := p.removeEntry(i); err != nil {
					t.Fatalf("round %d: removeEntry(%d): %v", round, i, err)
				}
				model = append(model[:i], model[i+1:]...)
			}
			// Verify.
			var got []kv
			if err := p.forEach(func(i int, e entry) bool {
				got = append(got, kv{append([]byte(nil), e.key...), append([]byte(nil), e.data...)})
				return true
			}); err != nil {
				t.Fatalf("round %d: forEach: %v", round, err)
			}
			if len(got) != len(model) {
				t.Fatalf("round %d op %d: %d entries, want %d", round, op, len(got), len(model))
			}
			for i := range model {
				if !bytes.Equal(got[i].k, model[i].k) || !bytes.Equal(got[i].v, model[i].v) {
					t.Fatalf("round %d op %d entry %d: got %q=%q want %q=%q",
						round, op, i, got[i].k, got[i].v, model[i].k, model[i].v)
				}
			}
		}
	}
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

// Property: a pair added to an empty page always reads back.
func TestPageRoundtripProperty(t *testing.T) {
	f := func(k, v []byte) bool {
		if len(k) == 0 || len(k)+len(v) > 1024-slotBaseFor(1024)-2*slotSize-linkReserve {
			return true // out of scope for a single 1K page
		}
		p := newTestPage(1024)
		if !p.fitsRegular(len(k), len(v)) {
			return false
		}
		p.addRegular(k, v)
		key, data, ok := p.pairAt(0)
		return ok && bytes.Equal(key, k) && bytes.Equal(data, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
