package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"plum/perfbench/internal/prom"
)

// daemon is one running plumserve process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after exited closes

	mu   sync.Mutex
	tail []string // last stderr lines, for failure reports
}

var listenLine = regexp.MustCompile(`serving .* on (127\.0\.0\.1:\d+)`)

// probe is the client of the readiness and metrics endpoints: no proxy,
// no connection reuse across daemons.
var probe = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// spawn starts plumserve and returns once /readyz answers 200, with the
// time from the start of the process to that answer.
func spawn(ctx context.Context, bin string, args []string) (*daemon, time.Duration, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = pw
	// The daemon dies with the harness, however the harness ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, 0, err
	}
	pw.Close()
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go d.readStderr(pr, addr)
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()

	select {
	case d.addr = <-addr:
	case <-d.exited:
		return nil, 0, fmt.Errorf("plumserve exited before listening (%v):\n%s", d.err, d.tailText())
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}
	for {
		if _, err := d.get(ctx, "/readyz"); err == nil {
			return d, time.Since(start), nil
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("plumserve exited before ready (%v):\n%s", d.err, d.tailText())
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// readStderr keeps the daemon's last stderr lines and reports its
// listen address once.  It ends when the process closes stderr.
func (d *daemon) readStderr(r io.ReadCloser, addr chan<- string) {
	defer r.Close()
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		if m := listenLine.FindStringSubmatch(line); m != nil && !sent {
			addr <- m[1]
			sent = true
		}
	}
}

func (d *daemon) tailText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// get fetches a path and returns its body when the status is 200.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := probe.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// scrape reads and parses /metrics.
func (d *daemon) scrape(ctx context.Context) ([]prom.Sample, error) {
	b, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return prom.Parse(strings.NewReader(string(b)))
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuSeconds reads the daemon's user+system CPU time so far.  Unlike
// wall time it excludes time the virtual CPU was stolen by the host.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// utime and stime are the 14th and 15th fields, in clock ticks; the
	// command name before them is parenthesised and may hold spaces.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", d.cmd.Process.Pid)
	}
	return (ut + st) / ticksPerSecond, nil
}

// ticksPerSecond is USER_HZ, the unit of /proc CPU times; Linux fixes it
// at 100 on every architecture Go supports.
const ticksPerSecond = 100

// stop drains the daemon with SIGTERM and requires a clean exit.
func (d *daemon) stop() error {
	if err := d.terminate(); err != nil {
		return err
	}
	if d.err != nil {
		return fmt.Errorf("plumserve exited uncleanly (%v):\n%s", d.err, d.tailText())
	}
	return nil
}

// discard ends a set-up spawn that served nothing.  plumserve answers
// /readyz before it installs its SIGTERM handler, so a spawn stopped
// right after its first ready answer may die of the signal instead of
// draining; both endings are accepted here.
func (d *daemon) discard() error {
	if err := d.terminate(); err != nil {
		return err
	}
	var ee *exec.ExitError
	if errors.As(d.err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if d.err != nil {
		return fmt.Errorf("plumserve exited uncleanly (%v):\n%s", d.err, d.tailText())
	}
	return nil
}

// terminate sends SIGTERM and waits for the process to end.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("plumserve did not drain within 60s")
	}
}

// kill ends the process if it is still running and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}
