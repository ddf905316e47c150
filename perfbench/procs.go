package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one daemon or router process started by the benchmark.
type proc struct {
	name string
	args []string
	cmd  *exec.Cmd
	base string // http://host:port, learned from the process's own log

	logMu sync.Mutex
	log   []byte // tail of stderr, for error reports

	scanned chan struct{} // closed once stderr hits EOF (the process exited)
	maxRSS  int64         // peak resident set in KiB, set by stop
}

// startProc starts bin with GOMAXPROCS=procs, listening on an ephemeral
// loopback port, and returns
// once the process logs the address it serves on. The daemons log JSON
// records; the "…: serving" record carries the bound address. No sleeps:
// the wait is a blocking read of the process's stderr.
func startProc(name, bin string, args []string, procs int) (*proc, error) {
	p := &proc{name: name, args: args, scanned: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	// The kernel kills the child if the benchmark dies first (a panic, a
	// signal), so no daemon outlives a run on any path out of it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(p.scanned)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		found := false
		for sc.Scan() {
			line := sc.Bytes()
			p.appendLog(line)
			if found {
				continue
			}
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(line, &rec) == nil && strings.HasSuffix(rec.Msg, ": serving") && rec.Addr != "" {
				found = true
				addr <- rec.Addr
			}
		}
		// Drain anything the scanner refused so the child never blocks on a
		// full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.scanned:
		p.stop()
		return nil, fmt.Errorf("%s exited before serving:\n%s", name, p.tail())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start serving within 60s:\n%s", name, p.tail())
	}
}

func (p *proc) appendLog(line []byte) {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	p.log = append(p.log, line...)
	p.log = append(p.log, '\n')
	if len(p.log) > 32<<10 {
		p.log = append([]byte(nil), p.log[len(p.log)-16<<10:]...)
	}
}

func (p *proc) tail() string {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return string(p.log)
}

// stop kills the process, waits for it, and records its peak RSS from the
// kernel's rusage (no /proc reads). Killing rather than a graceful stop
// keeps shutdown work — the final train and snapshot — out of the numbers.
func (p *proc) stop() {
	if p.cmd.ProcessState != nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.scanned
	_ = p.cmd.Wait()
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.maxRSS = ru.Maxrss
	}
}

// waitReady polls GET /readyz until it answers 200. The poll interval is
// below the ~1 ms timer tick, so readiness is seen as soon as it holds.
func waitReady(base string, within time.Duration) error {
	c := newClient(base)
	defer c.close()
	deadline := time.Now().Add(within)
	for {
		status, body, err := c.do(http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s: status %d %s %v", c.base, within, status, bytes.TrimSpace(body), err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// cluster is one set-up of a workload's processes.
type cluster struct {
	procs  []*proc
	shards []*proc
	front  *proc // where clients send: the router, or the only daemon
	dir    string
}

// daemonArgs are the quickseld flags every workload uses: no timer-driven
// or drift-driven retraining, so the model changes only at the benchmark's
// explicit train points.
func daemonArgs(walDir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-log-format", "json", "-train-interval", "1h", "-drift-threshold", "-1"}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir)
	}
	return args
}

// routerArgs are the quickselrouter flags for shards at the given base
// URLs. The router starts only after every shard is ready, and its first
// health probe runs at start-up, so the default probe period is short
// enough for that probe to see them.
func routerArgs(bases []string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-log-format", "json", "-health-interval", "1s"}
	for i, b := range bases {
		args = append(args, "-shard", fmt.Sprintf("s%d=%s", i, b))
	}
	return args
}

// startCluster spawns the workload's daemons (and router) and waits until
// every one is ready.
func startCluster(w *workloadDef, binDir, dir string) (*cluster, error) {
	cl := &cluster{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n := 1
	if w.sharded {
		n = 2
	}
	for i := 0; i < n; i++ {
		walDir := ""
		if w.wal {
			walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		}
		p, err := startProc(fmt.Sprintf("quickseld-%d", i), filepath.Join(binDir, "quickseld"), daemonArgs(walDir), w.daemonProcs())
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.procs = append(cl.procs, p)
		cl.shards = append(cl.shards, p)
	}
	for _, p := range cl.shards {
		if err := waitReady(p.base, 60*time.Second); err != nil {
			cl.stop()
			return nil, err
		}
	}
	cl.front = cl.shards[0]
	if w.sharded {
		var bases []string
		for _, p := range cl.shards {
			bases = append(bases, p.base)
		}
		r, err := startProc("quickselrouter", filepath.Join(binDir, "quickselrouter"), routerArgs(bases), w.daemonProcs())
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl.procs = append(cl.procs, r)
		if err := waitReady(r.base, 60*time.Second); err != nil {
			cl.stop()
			return nil, err
		}
		cl.front = r
	}
	return cl, nil
}

// stop kills every process and removes the set-up's data directory. It
// returns the summed peak RSS in KiB.
func (cl *cluster) stop() int64 {
	var rss int64
	for _, p := range cl.procs {
		p.stop()
		rss += p.maxRSS
	}
	_ = os.RemoveAll(cl.dir)
	return rss
}

func (cl *cluster) flags() map[string][]string {
	out := map[string][]string{}
	for _, p := range cl.procs {
		out[p.name] = p.args
	}
	return out
}
