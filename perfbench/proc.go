package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childRun is the outcome of one finished child process.
type childRun struct {
	start, end time.Time
	cpu        time.Duration // user + system time of the child
	maxRSSKB   int64
	stdout     []byte
}

func (c childRun) wall() time.Duration { return c.end.Sub(c.start) }

// rssPoller tracks a running child's peak resident set from VmHWM in
// /proc/<pid>/status. The exit status's rusage cannot be used: a child
// started by vfork+exec inherits its parent's peak RSS into ru_maxrss, so
// it would report this harness's memory, not the program's.
type rssPoller struct {
	pid  int
	peak int64 // KB; written only by the polling goroutine until done
	stop chan struct{}
	done chan struct{}
}

func pollRSS(pid int) *rssPoller {
	p := &rssPoller{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			p.sample()
			select {
			case <-p.stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()
	return p
}

// sample reads VmHWM once; a process that has exited has none.
func (p *rssPoller) sample() {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid))
	if err != nil {
		return
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err == nil && kb > p.peak {
				p.peak = kb
			}
			return
		}
	}
}

// finish stops the poller, takes a last sample if the process still runs,
// and returns the peak in KB.
func (p *rssPoller) finish() int64 {
	close(p.stop)
	<-p.done
	p.sample()
	return p.peak
}

// runChild runs bin with args to completion, capturing its standard output.
// A non-zero exit is an error that carries the child's standard error.
func runChild(ctx context.Context, bin string, args ...string) (childRun, error) {
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, fmt.Errorf("start %s: %w", bin, err)
	}
	rss := pollRSS(cmd.Process.Pid)
	err := cmd.Wait()
	end := time.Now()
	peak := rss.finish()
	if err != nil {
		return childRun{}, fmt.Errorf("%s %s: %v\n%s", bin, strings.Join(args, " "), err, tail(errb.String()))
	}
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return childRun{start: start, end: end, cpu: cpu, maxRSSKB: peak, stdout: out.Bytes()}, nil
}

// dieWithParent makes the kernel kill a child if this process dies first,
// so a benchmark killed on a timeout leaves no program running.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// tail keeps the last few lines of a child's diagnostics for an error.
func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// daemon is a long-running child: cmd/sharingd serving on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	rss    *rssPoller
	addr   string
	done   chan struct{} // closed when the stderr reader has drained
	stderr bytes.Buffer  // written only by the reader until done closes
}

// startDaemon starts bin and waits for it to announce its listen address
// on standard error ("<name>: listening on <addr>").
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = dieWithParent()
	pr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, rss: pollRSS(cmd.Process.Pid), done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addrc <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
			d.stderr.WriteString(line)
			d.stderr.WriteByte('\n')
		}
		// Drain anything left so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, pr)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening:\n%s", bin, tail(d.stderr.String()))
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not announce a listen address within 60s", bin)
	}
}

// stop asks the daemon to drain (SIGINT) and waits for it to exit, killing
// it if the drain takes longer than grace. It returns the child's peak RSS
// in KB; an exit other than a clean drain is an error.
func (d *daemon) stop(grace time.Duration) (int64, error) {
	peak := d.rss.finish()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.kill()
		return 0, fmt.Errorf("signal daemon: %w", err)
	}
	waited := make(chan error, 1)
	go func() {
		<-d.done
		waited <- d.cmd.Wait()
	}()
	select {
	case err := <-waited:
		if err != nil {
			return 0, fmt.Errorf("daemon exit: %v\n%s", err, tail(d.stderr.String()))
		}
		return peak, nil
	case <-time.After(grace):
		_ = d.cmd.Process.Kill()
		<-waited
		return 0, fmt.Errorf("daemon did not drain within %s", grace)
	}
}

// selfCPU is the user + system time this process has used so far. Set-up
// is timed by it: the hypervisor's steal time is left out of a process's
// CPU time, and not out of the wall clock (see README.md).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTime is the user + system time the running daemon has used so far,
// from /proc/<pid>/stat in USER_HZ = 100 ticks per second.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	var f []string
	if i >= 0 {
		f = strings.Fields(string(b[i+1:]))
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", d.cmd.Process.Pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", d.cmd.Process.Pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// kill ends the daemon at once and reaps it; for error paths.
func (d *daemon) kill() {
	select {
	case <-d.rss.stop:
	default:
		d.rss.finish()
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}
