package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestHWSweep: the table has one row per hardware configuration.
func TestHWSweep(t *testing.T) {
	out := stdoutOf(t)
	if rows := regexp.MustCompile(`(?m)^W\d\dS\d\d `).FindAllString(out, -1); len(rows) != 4 {
		t.Errorf("%d configuration rows, want 4:\n%s", len(rows), out)
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
