package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestQuickstart: TBPoint's cfd prediction is within 5% of the full run.
func TestQuickstart(t *testing.T) {
	out := stdoutOf(t)
	m := regexp.MustCompile(`sampling error: ([0-9.]+)%`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no sampling error line in:\n%s", out)
	}
	if pct, _ := strconv.ParseFloat(m[1], 64); pct >= 5 {
		t.Errorf("sampling error %v%%, want < 5%%", pct)
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
