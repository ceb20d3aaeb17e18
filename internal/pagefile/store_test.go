package pagefile

import (
	"strings"
	"testing"
)

func TestSnapshotString(t *testing.T) {
	s := NewMem(64)
	s.WritePage(0, make([]byte, 64))
	out := s.Stats().Snapshot().String()
	if !strings.Contains(out, "writes=1") {
		t.Fatalf("String = %q", out)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpRead: "read", OpWrite: "write", OpSync: "sync", Op(9): "unknown"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(op), got, want)
		}
	}
}

func TestInvalidPageSize(t *testing.T) {
	if _, err := OpenFile("/tmp/never-created.pg", 0, CostModel{}); err == nil {
		t.Fatal("OpenFile with page size 0 succeeded")
	}
	if _, err := OpenFile("/tmp/never-created.pg", -4, CostModel{}); err == nil {
		t.Fatal("OpenFile with negative page size succeeded")
	}
}

func TestFaultStorePassthroughMethods(t *testing.T) {
	inner := NewMem(128)
	f := NewFault(inner)
	if f.PageSize() != 128 {
		t.Fatalf("PageSize = %d", f.PageSize())
	}
	buf := make([]byte, 128)
	if err := f.WritePage(3, buf); err != nil {
		t.Fatal(err)
	}
	if f.NPages() != 4 {
		t.Fatalf("NPages = %d", f.NPages())
	}
	if f.Stats() != inner.Stats() {
		t.Fatal("Stats not passed through")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
