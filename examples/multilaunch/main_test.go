package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestMultiLaunch: sssp's 49 launches fold into fewer clusters.
func TestMultiLaunch(t *testing.T) {
	out := stdoutOf(t)
	m := regexp.MustCompile(`sssp: (\d+) launches -> (\d+) clusters`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no clustering line in:\n%s", out)
	}
	launches, _ := strconv.Atoi(m[1])
	clusters, _ := strconv.Atoi(m[2])
	if launches != 49 || clusters >= launches {
		t.Errorf("%d launches -> %d clusters, want 49 launches in fewer clusters", launches, clusters)
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
