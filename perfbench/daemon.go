package main

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
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one imtransd child process listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{} // closed when the process has exited
	err  error         // exit status, valid after done
}

var listenRe = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// startDaemon execs imtransd on an ephemeral loopback port, with extra
// flags, logging to logPath, and waits until it names its address.
func startDaemon(bin string, extra []string, logPath string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start imtransd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenRe.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		// Drain anything a scanner error left unread so the child never
		// blocks on a full pipe.
		_, _ = io.Copy(logf, stderr)
		d.err = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("imtransd exited before listening: %v (log %s)", d.err, logPath)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("imtransd did not report its address within 30s")
	}
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, hc *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("imtransd not ready: %w", ctx.Err())
		case <-d.done:
			return fmt.Errorf("imtransd exited while starting: %v", d.err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// metrics scrapes /metrics into a name{labels} -> value map.
func (d *daemon) metrics(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return parseMetrics(body), nil
}

// parseMetrics reads Prometheus text exposition: "name value" lines.
func parseMetrics(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// cpuSeconds reads the daemon's CPU time so far, user plus system, over
// all its threads, from /proc/<pid>/stat (clock ticks of 1/100 s). Time
// the hypervisor gave to other machines is not in it.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcCPU(string(b))
}

// parseProcCPU returns utime + stime of a /proc/<pid>/stat line in
// seconds. The fields are counted from after the command name, which
// may itself hold spaces and parentheses.
func parseProcCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("not a /proc stat line: %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", stat)
	}
	var ticks float64
	for _, s := range f[11:13] {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += float64(n)
	}
	return ticks / clockTicks, nil
}

// clockTicks is Linux's USER_HZ, the unit of /proc CPU times.
const clockTicks = 100

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than 60s. A drain that does not exit 0 is
// an error: the daemon failed its own shutdown contract.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("imtransd drain: %w", d.err)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("imtransd did not drain within 60s")
	}
}

// kill stops the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}
