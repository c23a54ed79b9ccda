package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo is recorded beside every set of numbers; -compare refuses to
// judge two sets taken on different hosts.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// WorkdirFS is the filesystem type under the scratch directory: the
	// served workloads fsync into it.
	WorkdirFS string `json:"workdir_fs"`
}

// hostProcs is the benchmark's whole CPU budget: the generator is this one
// process, and it never runs more threads or connections than cores.
func hostProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func hostFingerprint(workdir string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		WorkdirFS:  fsType(workdir),
	}
}

// fsType finds the mount that holds dir in /proc/mounts.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimRight(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}
