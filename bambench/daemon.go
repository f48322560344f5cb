package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/server/client"
)

// daemon is one bambood process started by the benchmark.
type daemon struct {
	cmd       *exec.Cmd
	done      chan struct{} // closed once cmd.Wait returned
	listening chan struct{} // closed once the daemon announced its port
	url       string
	walDir    string
	cl        *client.Client
}

// daemonProcs is the GOMAXPROCS the daemon runs with: every CPU.
func daemonProcs() int { return runtime.NumCPU() }

// newHTTPClient returns a client whose idle pool keeps one connection
// per in-flight request alive, so no request pays a TCP handshake.
func newHTTPClient(rt http.RoundTripper) *http.Client {
	if rt == nil {
		rt = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	}
	return &http.Client{Transport: rt}
}

// startDaemon execs bambood with args plus a fresh loopback port and
// waits for /healthz. It retries on another port if the chosen one was
// taken in between.
func startDaemon(ctx context.Context, bin, walDir string, args []string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		full := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)
		if walDir != "" {
			full = append(full, "-wal-dir", walDir)
		}
		cmd := exec.Command(bin, full...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs()))
		listening := make(chan struct{})
		cmd.Stdout = os.Stderr
		cmd.Stderr = &announceWriter{signal: listening}
		// If bambench dies without stopping it, the daemon dies too.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start bambood: %w", err)
		}
		d := &daemon{cmd: cmd, done: make(chan struct{}), listening: listening, url: fmt.Sprintf("http://127.0.0.1:%d", port), walDir: walDir}
		go func() { _ = cmd.Wait(); close(d.done) }()
		d.cl = client.NewWithHTTPClient(d.url, newHTTPClient(nil))
		if lastErr = d.awaitHealthy(ctx); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// announceWriter passes the daemon's standard error through and closes
// signal when the daemon announces that it is about to listen.
type announceWriter struct {
	signal chan struct{}
	once   sync.Once
}

func (w *announceWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("bambood: listening on")) {
		w.once.Do(func() { close(w.signal) })
	}
	return os.Stderr.Write(p)
}

// awaitHealthy waits for the daemon's listening announcement, then asks
// /healthz without pausing between tries: the daemon binds its port
// right after the announcement, and a sleep would add a timer tick
// (about a millisecond) to the set-up time it measures.
func (d *daemon) awaitHealthy(ctx context.Context) error {
	exited := func() error { return fmt.Errorf("bambood exited during start-up: %v", d.cmd.ProcessState) }
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case <-d.listening:
	case <-d.done:
		return exited()
	case <-timeout.C:
		return fmt.Errorf("bambood did not announce its port within 30s")
	}
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := d.cl.Healthz(hctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-d.done:
			return exited()
		case <-timeout.C:
			return fmt.Errorf("bambood not healthy after 30s: %w", err)
		default:
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// returns once the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// cpuTime is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (utime and stime, in clock ticks of 10ms).
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	const tick = 10 * time.Millisecond // sysconf(_SC_CLK_TCK) = 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// peakRSS is the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir (0 if absent).
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// cpuSample is the daemon's CPU time at one instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// cpuSampler reads the daemon's CPU time now and then every period
// until stopped.
type cpuSampler struct {
	d    *daemon
	quit chan struct{}
	done chan struct{}
	s    []cpuSample
	err  error
}

func (d *daemon) sampleCPU(period time.Duration) *cpuSampler {
	cs := &cpuSampler{d: d, quit: make(chan struct{}), done: make(chan struct{})}
	take := func() {
		c, err := d.cpuTime()
		if err != nil && cs.err == nil {
			cs.err = err
		}
		cs.s = append(cs.s, cpuSample{at: time.Now(), cpu: c})
	}
	take()
	go func() {
		defer close(cs.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				take()
			case <-cs.quit:
				return
			}
		}
	}()
	return cs
}

// stop ends sampling and returns every sample plus a last one taken
// now, which closes a partial window.
func (cs *cpuSampler) stop() ([]cpuSample, error) {
	close(cs.quit)
	<-cs.done
	c, err := cs.d.cpuTime()
	if err != nil && cs.err == nil {
		cs.err = err
	}
	return append(cs.s, cpuSample{at: time.Now(), cpu: c}), cs.err
}
