package db

import (
	"errors"
	"fmt"
	"testing"

	"unixhash/internal/core"
)

// TestStatsUniform: every DB shape answers Stats() with the common
// fields filled in and the table detail non-nil — the replacement for
// reaching through the adapter with a type assertion.
func TestStatsUniform(t *testing.T) {
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			d, err := im.open("")
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			const n = 100
			for i := 0; i < n; i++ {
				if err := d.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				if _, err := d.Get([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}

			s, err := d.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if s.Method != Hash {
				t.Errorf("Method = %v, want %v", s.Method, Hash)
			}
			if s.Keys != n {
				t.Errorf("Keys = %d, want %d", s.Keys, n)
			}
			if s.Hash == nil {
				t.Fatalf("want the table detail, got %+v", s)
			}
			if s.Hash.Gets != n || s.Hash.Puts != n {
				t.Errorf("hash ops = %d gets / %d puts, want %d / %d",
					s.Hash.Gets, s.Hash.Puts, n, n)
			}
			if s.Pages == 0 || s.PageSize == 0 {
				t.Errorf("pages = %d x %d, want nonzero", s.Pages, s.PageSize)
			}
			if s.CacheHits == 0 || s.CacheHitRatio <= 0 {
				t.Errorf("cache hits = %d ratio %.2f, want hot-page hits",
					s.CacheHits, s.CacheHitRatio)
			}
			if s.Hash.Buckets == 0 {
				t.Error("hash Buckets = 0")
			}
		})
	}
}

// TestStatsClosed: Stats on a closed DB propagates ErrClosed instead of
// inventing a stale answer.
func TestStatsClosed(t *testing.T) {
	for _, im := range implementors {
		t.Run(im.name, func(t *testing.T) {
			d, err := im.open("")
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Stats(); err == nil {
				t.Fatal("Stats on closed DB succeeded, want error")
			}
		})
	}
}

// TestOpenBadOptions: Open rejects out-of-range options up front with
// ErrBadOptions naming the offending field, instead of silently
// clamping them.
func TestOpenBadOptions(t *testing.T) {
	cases := []struct {
		name  string
		m     Method
		cfg   *Config
		field string
	}{
		{"hash bsize not power of two", Hash,
			&Config{Hash: &core.Options{Bsize: 300}}, "Bsize"},
		{"hash negative ffactor", Hash,
			&Config{Hash: &core.Options{Ffactor: -1}}, "Ffactor"},
		{"hash negative nelem", Hash,
			&Config{Hash: &core.Options{Nelem: -5}}, "Nelem"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Open("", tc.m, tc.cfg)
			if err == nil {
				d.Close()
				t.Fatal("Open succeeded with invalid options")
			}
			if !errors.Is(err, ErrBadOptions) {
				t.Fatalf("err = %v, want ErrBadOptions", err)
			}
			if !containsField(err.Error(), tc.field) {
				t.Errorf("error %q does not name field %q", err, tc.field)
			}
		})
	}

	// Zero values mean "use the default" and always validate.
	d, err := Open("", Hash, &Config{Hash: &core.Options{}})
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	d.Close()
}

func containsField(s, field string) bool {
	for i := 0; i+len(field) <= len(s); i++ {
		if s[i:i+len(field)] == field {
			return true
		}
	}
	return false
}
