package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestMarkovModel: the predicted interval IPC rises with the warp count N.
func TestMarkovModel(t *testing.T) {
	out := stdoutOf(t)
	rows := regexp.MustCompile(`N=\s*\d+\s+IPC=([0-9.]+)`).FindAllStringSubmatch(out, -1)
	if len(rows) < 2 {
		t.Fatalf("want the IPC-vs-N rows in:\n%s", out)
	}
	prev := 0.0
	for _, r := range rows {
		ipc, _ := strconv.ParseFloat(r[1], 64)
		if ipc <= prev {
			t.Errorf("%s: IPC does not rise with N (previous %v)", r[0], prev)
		}
		prev = ipc
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
