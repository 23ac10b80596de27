package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// host records the facts a result depends on. Steal time is diagnostic
// only: it identifies runs that shared the CPUs with another tenant.
type host struct {
	dir   string
	steal int64
}

func startHost(dir string) *host {
	return &host{dir: dir, steal: stealTicks()}
}

// stealTicks is the machine-wide steal time from /proc/stat, in
// USER_HZ ticks.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// fsName names the filesystem holding path, where the WALs live.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", st.Type)
	}
}

// revision is the VCS revision the benchmark binary was built from.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// print writes the host facts as one JSON line.
func (h *host) print(sp spec) {
	fsync := "none (in memory)"
	if sp.durable {
		fsync = "fsync per group commit on every node"
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"revision":    revision(),
		"wal_fs":      fsName(h.dir),
		"wal_fsync":   fsync,
		"steal_ticks": stealTicks() - h.steal,
		"limit_ms":    ms(int64(sp.limit)),
		"rate_tps":    sp.rate,
	})
	fmt.Printf("host: %s\n", b)
}
