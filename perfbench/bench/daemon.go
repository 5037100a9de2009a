package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ibr"
)

// Daemon is one ibrd process under test, with the benchmark's client
// connections to it.
type Daemon struct {
	cmd     *exec.Cmd
	Addr    string
	HTTP    string
	Clients []*ibr.Client
	Started time.Time // when the process was launched
	out     lockedBuffer
	exited  chan struct{}
	waitErr error
	http    *http.Client
}

// lockedBuffer collects a child's output; exec copies into it from its
// own goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// StartDaemon launches bin with args plus its listen addresses and waits
// until it accepts connections, then dials conns clients (no retry: a BUSY
// answer reaches the benchmark as a failed op).
func StartDaemon(bin string, args []string, conns int) (*Daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &Daemon{Addr: addr, HTTP: httpAddr, exited: make(chan struct{}),
		http: &http.Client{Timeout: 10 * time.Second}}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-http", httpAddr}, args...)...)
	d.cmd.Stdout = &d.out
	d.cmd.Stderr = &d.out
	d.Started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.waitErr = d.cmd.Wait(); close(d.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			break
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("ibrd exited during start-up: %v\n%s", d.waitErr, tail(d.out.String()))
		default:
		}
		if time.Now().After(deadline) {
			d.Kill()
			return nil, fmt.Errorf("ibrd did not accept on %s within 30s", addr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < conns; i++ {
		cl, err := ibr.DialServer(addr)
		if err != nil {
			d.Kill()
			return nil, err
		}
		d.Clients = append(d.Clients, cl)
	}
	return d, nil
}

// Do issues req on client conn without retry.
func (d *Daemon) Do(conn int, req ibr.Request) (ibr.Response, error) {
	return d.Clients[conn].DoContext(bgctx, req)
}

// Kill stops the process hard and waits for it (error paths only).
func (d *Daemon) Kill() {
	for _, c := range d.Clients {
		c.Close()
	}
	d.cmd.Process.Kill()
	<-d.exited
}

var drainRE = regexp.MustCompile(`drained: \d+ ops served over \d+ connections, (\d+) blocks unreclaimed after final scan`)

// Stop closes the clients, sends SIGTERM and waits for the drain. It
// returns the daemon's drain line and an error unless the daemon exited
// cleanly with 0 blocks unreclaimed after its final scan.
func (d *Daemon) Stop() (string, error) {
	for _, c := range d.Clients {
		c.Close()
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.Kill()
		return "", fmt.Errorf("signal ibrd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return "", fmt.Errorf("ibrd did not drain within 60s")
	}
	out := d.out.String()
	m := drainRE.FindStringSubmatch(out)
	if m == nil {
		return "", fmt.Errorf("ibrd printed no drain line (exit: %v)\n%s", d.waitErr, tail(out))
	}
	if d.waitErr != nil {
		return m[0], fmt.Errorf("ibrd exited with %v after draining", d.waitErr)
	}
	if m[1] != "0" {
		return m[0], fmt.Errorf("ibrd drained to %s blocks unreclaimed, want 0", m[1])
	}
	return m[0], nil
}

func tail(s string) string {
	if len(s) > 2000 {
		return "..." + s[len(s)-2000:]
	}
	return s
}

// Vars is the part of ibrd's /debug/vars the benchmark reads.
type Vars struct {
	Ibrd struct {
		Ops           uint64 `json:"ops"`
		QueueDepth    int    `json:"queue_depth"`
		Unreclaimed   int    `json:"unreclaimed"`
		Live          uint64 `json:"live"`
		MaxEpochLag   uint64 `json:"max_epoch_lag"`
		Scans         uint64 `json:"scans"`
		ScanExamined  uint64 `json:"scan_examined"`
		ScanFreed     uint64 `json:"scan_freed"`
		Shed          uint64 `json:"submits_shed"`
		PoolExhausted uint64 `json:"pool_exhausted"`
		RangeLegs     uint64 `json:"range_legs"`
		UnderScanHW   int64  `json:"unreclaimed_under_scan_hw"`
		Expired       uint64 `json:"expired"`
		RetiredUser   uint64 `json:"retired_user"`
		RetiredExpiry uint64 `json:"retired_expiry"`
	} `json:"ibrd"`
	Server struct {
		ConnsDroppedProto uint64 `json:"conns_dropped_proto"`
		FramesRejected    uint64 `json:"frames_rejected"`
	} `json:"ibrd_server"`
	Mem struct {
		Mallocs       uint64  `json:"Mallocs"`
		NumGC         uint32  `json:"NumGC"`
		LastGC        uint64  `json:"LastGC"` // end of the last cycle, Unix ns
		GCCPUFraction float64 `json:"GCCPUFraction"`
	} `json:"memstats"`
}

// Vars fetches /debug/vars.
func (d *Daemon) Vars() (*Vars, error) {
	b, err := d.get("/debug/vars")
	if err != nil {
		return nil, err
	}
	var v Vars
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return &v, nil
}

// TraceJSON fetches /debug/trace (the flight recorder as Perfetto JSON).
func (d *Daemon) TraceJSON() ([]byte, error) { return d.get("/debug/trace") }

func (d *Daemon) get(path string) ([]byte, error) {
	resp, err := d.http.Get("http://" + d.HTTP + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every mainstream Linux build).
const clockTick = 10 * time.Millisecond

// CPU returns the process's user+sys CPU time so far.
func (d *Daemon) CPU() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, i.e. 12 and 13 after ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	k, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(u+k) * clockTick, nil
}

// PeakRSS returns the process's peak resident set (VmHWM) in MiB.
func (d *Daemon) PeakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}
