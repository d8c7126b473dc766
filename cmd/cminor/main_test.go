package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

var figure1 = filepath.Join("..", "..", "examples", "figure1.c")

// front runs the command with args and returns its exit status,
// stdout and stderr.
func front(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDump: each -dump stage of the paper's Figure 1 program exits 0
// and prints that stage's shape.
func TestDump(t *testing.T) {
	for _, tc := range []struct {
		dump string
		want []string
	}{
		{"tokens", []string{figure1 + ":8:1\ttypedef\n", figure1 + ":25:1\tEOF\n"}},
		{"ir", []string{"func main():\n", "= CALL &rnew(null)\n", "STORE [req+0] = conn\n", "RET __ret\n"}},
		{"callgraph", []string{"main:\n", figure1 + ":18:13 -> rnew (extern)\n", figure1 + ":21:17 -> ralloc (extern)\n"}},
	} {
		code, stdout, stderr := front("-dump", tc.dump, figure1)
		if code != 0 || stderr != "" {
			t.Errorf("-dump %s: exit %d, stderr %q", tc.dump, code, stderr)
		}
		for _, w := range tc.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("-dump %s lacks %q:\n%s", tc.dump, w, stdout)
			}
		}
	}
}

// TestUsageErrors: an unknown -dump and a missing input exit 2 before
// any file is read (the named file does not exist, which would exit
// 1), an unreadable input exits 1, and -h exits 0.
func TestUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.c")
	for _, tc := range []struct {
		args   []string
		want   int
		stderr string
	}{
		{[]string{"-dump", "bogus", missing}, 2, `cminor: unknown -dump "bogus"`},
		{[]string{"-dump", "ir"}, 2, "cminor: no input files"},
		{[]string{"-no-such-flag", figure1}, 2, "flag provided but not defined"},
		{[]string{missing}, 1, "no such file"},
		{[]string{"-h"}, 0, "Usage of cminor"},
	} {
		code, stdout, stderr := front(tc.args...)
		if code != tc.want || stdout != "" || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("cminor %v: exit %d, stdout %q, stderr %q; want exit %d and %q",
				tc.args, code, stdout, stderr, tc.want, tc.stderr)
		}
	}
}
