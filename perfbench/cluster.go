package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/wire"
	"repro/internal/workload"
)

// server is one `replicadb serve` process of a cluster.
type server struct {
	cmd  *exec.Cmd
	addr string
	wal  string // WAL directory, "" when in memory
	link *client.Link
	done chan struct{} // closed once the process has exited and been reaped
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// cluster is a booted set of server processes plus the system the
// generator drives: one pooled client, or a router over one client per
// shard group.
type cluster struct {
	spec    spec
	servers []*server
	clients []*client.Client
	sys     repl.System
	router  *router.Router // nil unless the workload is sharded
	tables  []string
	born    time.Time     // when the first server was spawned
	setup   time.Duration // from born until ready and loaded
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// startCluster boots the workload's servers from bin, waits until they
// serve (and, with Paxos, until leadership has settled), and loads the
// catalog. Server logs and fresh WAL directories go to a new
// directory under dir. The cluster's setup time runs from the first
// spawn to the end of the load.
func startCluster(bin, dir string, sp spec, traced bool) (*cluster, error) {
	c := &cluster{spec: sp}
	dir, err := os.MkdirTemp(dir, "boot-")
	if err != nil {
		return nil, err
	}
	n := sp.replicas * sp.shards
	addrs, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	c.born = time.Now()
	for g := 0; g < sp.shards; g++ {
		peers := addrs[g*sp.replicas : (g+1)*sp.replicas]
		for i, addr := range peers {
			s := &server{addr: addr}
			args := []string{"serve", "-design", "mm", "-id", strconv.Itoa(i),
				"-listen", addr, "-peers", strings.Join(peers, ",")}
			if !traced {
				args = append(args, "-notrace")
			}
			if sp.paxos {
				args = append(args, "-paxos")
			}
			if sp.batch && (sp.paxos || i == 0) {
				args = append(args, "-groupcommit")
			}
			if sp.shards > 1 {
				args = append(args, "-shard", strconv.Itoa(g), "-shards", strconv.Itoa(sp.shards))
			}
			if sp.durable {
				s.wal = filepath.Join(dir, fmt.Sprintf("wal-g%d-r%d", g, i))
				args = append(args, "-wal-dir", s.wal, "-fsync")
			}
			logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("server-g%d-r%d.log", g, i)))
			if err != nil {
				c.stop()
				return nil, err
			}
			s.cmd = exec.Command(bin, args...)
			s.cmd.Stdout, s.cmd.Stderr = logf, logf
			// The kernel kills the servers if the benchmark dies first.
			s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			err = s.cmd.Start()
			logf.Close()
			if err != nil {
				c.stop()
				return nil, err
			}
			s.done = make(chan struct{})
			go func() { s.cmd.Wait(); close(s.done) }()
			s.link = client.NewLink(addr, "mm", -1, time.Second)
			c.servers = append(c.servers, s)
		}
	}
	if err := c.waitReady(30 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	var groups []router.Group
	for g := 0; g < sp.shards; g++ {
		cl, err := client.New(client.Options{Servers: addrs[g*sp.replicas : (g+1)*sp.replicas], Design: "mm"})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.clients = append(c.clients, cl)
		groups = append(groups, cl)
	}
	var loader repl.Loader = c.clients[0]
	c.sys = c.clients[0]
	if sp.shards > 1 {
		if c.router, err = router.New(1, groups); err != nil {
			c.stop()
			return nil, err
		}
		c.sys, loader = c.router, c.router
	}
	cat, err := workload.CatalogFor(sp.workloadMix())
	if err != nil {
		c.stop()
		return nil, err
	}
	if err := repl.LoadCatalog(loader, cat, sp.factor); err != nil {
		c.stop()
		return nil, fmt.Errorf("load: %w", err)
	}
	c.setup = time.Since(c.born)
	for t := range cat.Tables {
		c.tables = append(c.tables, t)
	}
	sort.Strings(c.tables)
	return c, nil
}

// A Paxos group elects its first leader with staggered timers (replica
// i campaigns after i+1 election timeouts, 1 s by default) and can
// still replace that leader a few seconds after boot, failing the
// commits in flight with unknown outcomes. So a Paxos cluster counts as
// ready only once its leadership has held for paxosHold and the boot
// is at least paxosBoot per replica old.
const (
	paxosHold = time.Second
	paxosBoot = 5 * time.Second / 3
)

// waitReady polls every server's Stats until all answer and, for Paxos
// groups, each group's leadership has settled.
func (c *cluster) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var leaders string
	var since time.Time
	for {
		ready := true
		var now []string
		for i, s := range c.servers {
			if s.exited() {
				return fmt.Errorf("server %s exited during start-up", s.addr)
			}
			st, err := s.link.Stats()
			if err != nil {
				ready = false
				break
			}
			if st.Leading {
				now = append(now, fmt.Sprintf("%d@%d", i, st.Epoch))
			}
		}
		if cur := strings.Join(now, ","); cur != leaders {
			leaders, since = cur, time.Now()
		}
		if ready && !c.spec.paxos {
			return nil
		}
		if ready && len(now) == c.spec.shards && time.Since(since) >= paxosHold &&
			time.Since(c.born) >= time.Duration(c.spec.replicas)*paxosBoot {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready after %s", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates every server and waits for it to exit. A server that
// ignores SIGTERM for five seconds is killed.
func (c *cluster) stop() {
	for _, cl := range c.clients {
		cl.Close()
	}
	c.clients = nil
	for _, s := range c.servers {
		s.link.Close()
		s.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, s := range c.servers {
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
		}
	}
	c.servers = nil
}

// stats polls every server's cumulative counters.
func (c *cluster) stats() ([]wire.StatsOK, error) {
	out := make([]wire.StatsOK, len(c.servers))
	for i, s := range c.servers {
		st, err := s.link.Stats()
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", s.addr, err)
		}
		out[i] = *st
	}
	return out, nil
}

// procSample is the outside-in view of one process: CPU time and the
// kernel's I/O accounting from /proc/<pid>/stat and /proc/<pid>/io.
type procSample struct {
	cpu          time.Duration // utime + stime
	syscr, syscw int64
	rchar, wchar int64
}

func (a procSample) sub(b procSample) procSample {
	return procSample{a.cpu - b.cpu, a.syscr - b.syscr, a.syscw - b.syscw, a.rchar - b.rchar, a.wchar - b.wchar}
}

func (a procSample) add(b procSample) procSample {
	return procSample{a.cpu + b.cpu, a.syscr + b.syscr, a.syscw + b.syscw, a.rchar + b.rchar, a.wchar + b.wchar}
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// readProc samples /proc/<pid> ("self" for the benchmark process).
func readProc(pid string) (procSample, error) {
	var p procSample
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return p, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	p.cpu = time.Duration(ut+st) * clockTick
	kv, err := readKV("/proc/" + pid + "/io")
	if err != nil {
		return p, err
	}
	p.syscr, p.syscw, p.rchar, p.wchar = kv["syscr"], kv["syscw"], kv["rchar"], kv["wchar"]
	return p, nil
}

// readKV parses a "key: value" /proc file, keeping integer values.
func readKV(path string) (map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, sc.Err()
}

// procs samples every server process.
func (c *cluster) procs() ([]procSample, error) {
	out := make([]procSample, len(c.servers))
	for i, s := range c.servers {
		p, err := readProc(strconv.Itoa(s.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// peakRSSMB sums the servers' peak resident set (VmHWM) in MiB.
func (c *cluster) peakRSSMB() (float64, error) {
	var kb int64
	for _, s := range c.servers {
		kv, err := readKV(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb += kv["VmHWM"]
	}
	return float64(kb) / 1024, nil
}

// walBytes sums the sizes of the files in every server's WAL directory.
func (c *cluster) walBytes() int64 {
	var n int64
	for _, s := range c.servers {
		if s.wal == "" {
			continue
		}
		filepath.WalkDir(s.wal, func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
				n += info.Size()
			}
			return nil
		})
	}
	return n
}
