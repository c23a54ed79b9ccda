package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

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
		"-max-requeues", "-1", "-stuck-after", "90s", "-max-queued", "7", "-max-queued-client", "2",
	}); err != nil {
		t.Fatal(err)
	}
	want := server.Config{StateDir: "/var/lib/tbpoint", Dispatchers: 3, CacheMaxBytes: 5000, Paused: true,
		MaxRequeues: -1, StuckAfter: 90 * time.Second, MaxQueued: 7, MaxQueuedPerClient: 2}
	if !reflect.DeepEqual(*cfg, want) {
		t.Errorf("server.Config = %+v, want %+v", *cfg, want)
	}

	fs = flag.NewFlagSet("tbpointd", flag.ContinueOnError)
	cfg = configFlags(fs)
	if err := fs.Parse([]string{"-state-dir", "s"}); err != nil {
		t.Fatal(err)
	}
	if want := (server.Config{StateDir: "s", Dispatchers: 2, MaxRequeues: server.DefaultMaxRequeues}); !reflect.DeepEqual(*cfg, want) {
		t.Errorf("defaults: server.Config = %+v, want %+v (watchdog off, default requeue cap)", *cfg, want)
	}

	fs = flag.NewFlagSet("tbpointd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	configFlags(fs)
	if err := fs.Parse([]string{"-state-dir", "s", "-chaos"}); err == nil {
		t.Error("the retired -chaos flag is accepted")
	}
}
