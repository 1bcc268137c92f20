package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"x3/internal/cellfile"
	"x3/internal/obs"
)

// child is a running x3serve.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	args []string
	log  *os.File
	done chan struct{} // closed when the process has been waited for
}

// freeAddr returns a loopback address with a port that was free a moment
// ago. x3serve does not report the port it bound, so ":0" cannot be
// passed through.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startChild launches x3serve with args on a free loopback port and waits
// for its first 200 from /generations — the moment a user could send the
// first query.
func startChild(ctx context.Context, bin, logPath string, args []string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	full := append(append([]string(nil), args...), "-addr", addr)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w (run the benchmark through bench/run.sh, which builds it)", bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, args: full, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status of a killed child carries nothing
		close(c.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var gen struct{}
		if getJSON(ctx, hc, c.base+"/generations", &gen) == nil {
			return c, nil
		}
		select {
		case <-c.done:
			c.log.Close()
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("x3serve exited during start-up: %s", lastLines(string(tail), 5))
		case <-ctx.Done():
			c.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("x3serve not ready after 2m")
		}
	}
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// kill SIGKILLs the child — no drain, no clean close: the restart check
// depends on it — and waits until the process has ended.
func (c *child) kill() {
	c.cmd.Process.Signal(syscall.SIGKILL) // an already-exited child is fine
	<-c.done
	c.log.Close()
}

// commandLine renders the exact child command for the report.
func (c *child) commandLine(bin string) string {
	return bin + " " + strings.Join(c.args, " ")
}

// procStat reads the child's peak resident set (VmHWM, MB) and consumed
// CPU time (utime+stime) from /proc.
func (c *child) procStat() (peakRSSMB float64, cpu time.Duration) {
	pid := strconv.Itoa(c.cmd.Process.Pid)
	if b, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					kb, _ := strconv.ParseFloat(f[0], 64)
					peakRSSMB = kb / 1024
				}
			}
		}
	}
	if b, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th fields of the line, in clock ticks (100 Hz on
		// every Linux this runs on).
		if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
			f := strings.Fields(string(b)[i+1:])
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				cpu = time.Duration(ut+st) * (time.Second / 100)
			}
		}
	}
	return peakRSSMB, cpu
}

// metrics scrapes GET /metrics.
func (c *child) metrics(ctx context.Context, hc *http.Client) (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := getJSON(ctx, hc, c.base+"/metrics", &snap)
	return snap, err
}

// storeBytes sums the encoded data bytes and cells of every generation
// cell file under root (a single cube.x3ci, a ladder directory, or a
// sharded tree of them), read from the files the child wrote.
func storeBytes(root string) (dataBytes, cells int64, err error) {
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, werr error) error {
		if werr != nil || d.IsDir() || !strings.HasSuffix(path, ".x3ci") {
			return werr
		}
		r, err := cellfile.OpenIndexed(path)
		if err != nil {
			return err
		}
		dataBytes += r.DataBytes()
		cells += r.NumCells()
		return r.Close()
	})
	return dataBytes, cells, err
}
