package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCustomKernel: the push and bin launches form two inter-launch
// clusters.
func TestCustomKernel(t *testing.T) {
	if out := stdoutOf(t); !strings.Contains(out, "inter-launch clusters: 2 ") {
		t.Errorf("want 2 inter-launch clusters in:\n%s", out)
	}
}

// stdoutOf runs main with no arguments and returns what it printed.
func stdoutOf(t *testing.T) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	args, stdout := os.Args, os.Stdout
	os.Args, os.Stdout = os.Args[:1], f
	defer func() { os.Args, os.Stdout = args, stdout }()
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
