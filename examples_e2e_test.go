package unixhash

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun executes every example program end to end; the
// examples are living documentation and must keep working.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go run per example; skipped in -short mode")
	}
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want []string // substrings the output must contain
	}{
		{
			name: "quickstart",
			args: []string{filepath.Join(dir, "qs.db")},
			want: []string{"cherry  -> prunus avium", "reopened"},
		},
		{
			name: "passwd",
			args: []string{filepath.Join(dir, "pw.db")},
			want: []string{"built", "0 page reads from disk"},
		},
		{
			name: "spellcheck",
			want: []string{"dictionary loaded: 24474 words", "MISSPELT"},
		},
		{
			name: "multitable",
			args: []string{filepath.Join(dir, "mt")},
			want: []string{"shared table holds 2000 pairs", "different hash function", "4162 overflow pages"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", "./examples/" + c.name}, c.args...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.name, err, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("example %s output missing %q:\n%s", c.name, want, out)
				}
			}
		})
	}
}
