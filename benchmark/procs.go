package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running lonad.
type proc struct {
	cmd  *exec.Cmd
	bin  string
	addr string
	args []string      // without the -addr pair
	url  string        // base URL it listens on
	done chan struct{} // closed once the process has been waited for
}

// live tracks every child so that no exit path — normal return, harness
// error, signal or watchdog — leaves a lonad behind.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// spawn starts lonad in its own process group with two scheduler threads
// and stderr discarded, listening on addr.
func spawn(bin, addr string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, bin: bin, addr: addr, args: args, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // "signal: killed" is the expected outcome
		close(p.done)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	return p, nil
}

// kill SIGKILLs the process group and waits for the process to end.
func (p *proc) kill() {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
	select {
	case <-p.done:
		return // already reaped: its pid may be someone else's by now
	default:
	}
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // exited but not yet reaped is fine
	<-p.done
}

func killAll() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitHealthy polls path until it answers 200 or the process dies.
func (p *proc) waitHealthy(hc *http.Client, path string) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(p.url + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("lonad %s exited before becoming healthy", strings.Join(p.args, " "))
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("lonad %s not healthy after 60s", strings.Join(p.args, " "))
}

// cpuTicks returns user+system clock ticks (USER_HZ = 100 on Linux).
func (p *proc) cpuTicks() (int64, error) {
	st, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(st, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(st[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return utime + stime, nil
}

// hwmKB returns the peak resident set size in kB.
func (p *proc) hwmKB() (int64, error) {
	st, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(st), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// deployment is a booted topology: one front lonad that clients talk to,
// and for the sharded topology the workers behind it.
type deployment struct {
	front   *proc
	workers []*proc
}

func (d *deployment) all() []*proc { return append([]*proc{d.front}, d.workers...) }

func (d *deployment) kill() {
	for _, p := range d.all() {
		if p != nil {
			p.kill()
		}
	}
}

// cpuMS sums the CPU time of every process, in milliseconds.
func (d *deployment) cpuMS() (float64, error) {
	var ticks int64
	for _, p := range d.all() {
		t, err := p.cpuTicks()
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return float64(ticks) * 10, nil
}

// rssPeakMB sums the processes' peak resident sets.
func (d *deployment) rssPeakMB() (float64, error) {
	var kb int64
	for _, p := range d.all() {
		v, err := p.hwmKB()
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// boot starts the workload's topology and returns once every process
// answers its health endpoint; the caller times it as set-up.
func boot(hc *http.Client, bin string, in *inputs, sharded, cache bool, journalDir string) (*deployment, error) {
	d := &deployment{}
	frontAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	frontArgs := []string{"-snapshot", in.snapPath, "-journal", journalDir}
	if !cache {
		frontArgs = append(frontArgs, "-cache-bytes", "0")
	}
	if sharded {
		const parts = 2
		var peers []string
		for i := 0; i < parts; i++ {
			addr, err := freeAddr()
			if err != nil {
				d.kill()
				return nil, err
			}
			w, err := spawn(bin, addr, "-graph", in.graphPath, "-scores", in.scoresPath,
				"-shards", strconv.Itoa(parts), "-shard-worker", "-shard-index", strconv.Itoa(i))
			if err != nil {
				d.kill()
				return nil, err
			}
			d.workers = append(d.workers, w)
			peers = append(peers, w.url)
		}
		// The coordinator dials its workers at boot, so they come up first.
		for _, w := range d.workers {
			if err := w.waitHealthy(hc, "/v1/shard/health"); err != nil {
				d.kill()
				return nil, err
			}
		}
		frontArgs = append(frontArgs, "-shard-peers", strings.Join(peers, ","))
	}
	if d.front, err = spawn(bin, frontAddr, frontArgs...); err != nil {
		d.kill()
		return nil, err
	}
	if err := d.front.waitHealthy(hc, "/v1/health"); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// respawn restarts a killed process on the address and arguments it had.
func (p *proc) respawn() (*proc, error) { return spawn(p.bin, p.addr, p.args...) }

// getJSON fetches path from the process and decodes the 200 body.
func (p *proc) getJSON(hc *http.Client, path string, dst any) error {
	resp, err := hc.Get(p.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
