package main

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"tbpoint/internal/server"
)

// TestFlagsReachConfig: each tbpointd flag that configures the server lands
// in the server.Config field it names, and the defaults are the documented
// ones.
func TestFlagsReachConfig(t *testing.T) {
	fs := flag.NewFlagSet("tbpointd", flag.ContinueOnError)
	cfg := configFlags(fs)
	if err := fs.Parse([]string{
		"-state-dir", "/var/lib/tbpoint", "-dispatchers", "3", "-cache-max-bytes", "5000", "-paused",
		"-max-requeues", "-1",
	}); err != nil {
		t.Fatal(err)
	}
	want := server.Config{StateDir: "/var/lib/tbpoint", Dispatchers: 3, CacheMaxBytes: 5000, Paused: true,
		MaxRequeues: -1}
	if !reflect.DeepEqual(*cfg, want) {
		t.Errorf("server.Config = %+v, want %+v", *cfg, want)
	}

	fs = flag.NewFlagSet("tbpointd", flag.ContinueOnError)
	cfg = configFlags(fs)
	if err := fs.Parse([]string{"-state-dir", "s"}); err != nil {
		t.Fatal(err)
	}
	if want := (server.Config{StateDir: "s", Dispatchers: 2, MaxRequeues: server.DefaultMaxRequeues}); !reflect.DeepEqual(*cfg, want) {
		t.Errorf("defaults: server.Config = %+v, want %+v (default requeue cap)", *cfg, want)
	}

	// Retired flags are unknown: the chaos fault and the stuck watchdog's
	// window.
	for _, retired := range []string{"-chaos", "-stuck-after=1m"} {
		fs = flag.NewFlagSet("tbpointd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		configFlags(fs)
		if err := fs.Parse([]string{"-state-dir", "s", retired}); err == nil {
			t.Errorf("the retired %s flag is accepted", retired)
		}
	}
}
