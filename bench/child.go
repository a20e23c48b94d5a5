package main

// The darkcrowd binary under test runs as child processes: one per batch
// geolocate, one per daemon. Every child is started with a parent-death
// signal, so none outlives the benchmark even if it is killed.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what one finished child cost.
type usage struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS int64         // bytes; includes this process's peak RSS at the fork
}

func command(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runCLI runs one darkcrowd command to completion, discarding its stdout.
func runCLI(ctx context.Context, bin string, args ...string) (usage, error) {
	cmd := command(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	u := usage{wall: time.Since(t0)}
	if err != nil {
		return u, fmt.Errorf("darkcrowd %s: %w: %s", args[0], err, strings.TrimSpace(stderr.String()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	u.maxRSS = ru.Maxrss * 1024
	return u, nil
}

// buildCLI compiles cmd/darkcrowd from the repository at root into dir.
func buildCLI(ctx context.Context, root, dir string) (string, time.Duration, error) {
	bin := dir + "/darkcrowd"
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/darkcrowd")
	cmd.Dir = root
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/darkcrowd: %w: %s", err, out)
	}
	return bin, time.Since(t0), nil
}

// servingPrefix starts the line `darkcrowd serve` prints once its
// listener is bound.
const servingPrefix = "darkcrowd geolocation daemon serving on http://"

// daemon is a running `darkcrowd serve` child.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	done   chan error // receives Wait's result once
	exited bool
}

// startDaemon boots `darkcrowd serve` on a loopback port and returns once
// it is accepting connections.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	d := &daemon{done: make(chan error, 1)}
	d.cmd = command(ctx, bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start darkcrowd serve: %w", err)
	}
	lines := bufio.NewReader(stdout)
	line, err := lines.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, lines)
		d.done <- d.cmd.Wait()
	}()
	addr, found := strings.CutPrefix(line, servingPrefix)
	if err != nil || !found {
		d.kill()
		return nil, fmt.Errorf("darkcrowd serve did not start: %q: %s", line, strings.TrimSpace(d.stderr.String()))
	}
	d.url = "http://" + strings.Fields(addr)[0]
	return d, nil
}

// stop asks the daemon to drain and exit, as an operator would, and waits.
func (d *daemon) stop() error {
	if d.exited {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		err = errors.New("did not exit within 30s of SIGTERM")
	}
	d.exited = true
	if err != nil {
		return fmt.Errorf("darkcrowd serve: %w: %s", err, strings.TrimSpace(d.stderr.String()))
	}
	return nil
}

// kill ends the daemon at once; it is a no-op after stop.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	d.exited = true
}

// cpu reads the daemon's CPU time so far from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	return procCPU(d.cmd.Process.Pid)
}

// peakRSS reads the daemon's own peak RSS so far. Unlike the max-RSS of
// its exit status, it does not include the benchmark's RSS at the fork.
func (d *daemon) peakRSS() (int64, error) {
	return peakRSS(strconv.Itoa(d.cmd.Process.Pid))
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// procCPU returns a live process's user + system CPU time.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the largest resident set size, in bytes, that a live
// process ("self" for this one) has had since it started or since
// resetPeakRSS.
func peakRSS(pid string) (int64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS frees what it can and lowers this process's recorded peak
// RSS to its current RSS. Go starts children with vfork, and Linux counts
// the parent's peak RSS at that moment in the child's max-RSS; keeping the
// benchmark's own peak low keeps it out of the children's numbers.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// newClient is the load generator's HTTP client: at most two connections,
// matching the two senders a 2-core machine can spare.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxSenders,
			MaxIdleConnsPerHost: maxSenders,
			DisableCompression:  true,
		},
	}
}

// call makes one request and reads the whole response into buf.
func call(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}
