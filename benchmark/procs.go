package main

// Child processes of the fleet-batched workload: start on ports chosen at
// run time, wait until ready, and stop for certain — on success, error,
// timeout or a signal — leaving no listener behind.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one chet-serve or chet-router process.
type child struct {
	name        string
	cmd         *exec.Cmd
	addr        string // client-facing listener
	metricsAddr string // /metrics listener
	log         *tailBuffer
	done        chan struct{} // closed when the process has been reaped
}

// tailBuffer keeps the last few KiB a child printed, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf.Write(p)
	if over := t.buf.Len() - 8192; over > 0 {
		t.buf.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.String()
}

// Ports come in blocks, portStride apart from portBase upwards; a run takes
// the first block whose ports are all free at that moment. Fixed candidates
// rather than kernel-assigned ports, because the router places a session by
// hashing its (sequential) ID onto a ring built from the workers' addresses:
// with the same addresses, every run needs the same number of session opens
// to reach both workers, so set-up time and memory repeat. portBase is below
// Linux's ephemeral range and was picked so that in each of the first three
// blocks sessions 1 and 2 land on different workers; in a later block a run
// may open a few more sessions and says so.
const (
	portBase   = 27300
	portStride = 16
	portBlocks = 32
)

// freePorts returns n loopback addresses that nothing listens on right now.
func freePorts(n int) ([]string, error) {
	for block := 0; block < portBlocks; block++ {
		var addrs []string
		for i := 0; i < n; i++ {
			addr := fmt.Sprintf("127.0.0.1:%d", portBase+block*portStride+i)
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				break
			}
			ln.Close()
			addrs = append(addrs, addr)
		}
		if len(addrs) == n {
			return addrs, nil
		}
	}
	return nil, fmt.Errorf("no %d free ports in any of the %d blocks from port %d", n, portBlocks, portBase)
}

// startChild launches binary with args plus -addr and -metrics-addr. The
// child is killed if this process dies before stopping it.
func startChild(ctx context.Context, cfg runConfig, name, binary, addr, metricsAddr string, args ...string) (*child, error) {
	c := &child{name: name, addr: addr, metricsAddr: metricsAddr, log: &tailBuffer{}, done: make(chan struct{})}
	// ctx cancellation (timeout, SIGINT) kills the process outright.
	c.cmd = exec.CommandContext(ctx, filepath.Join(cfg.BinDir, binary),
		append(args, "-addr", addr, "-metrics-addr", metricsAddr)...)
	c.cmd.Stdout = c.log
	c.cmd.Stderr = c.log
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		c.cmd.Wait() // the exit status of a stopped server carries nothing we act on
		close(c.done)
	}()
	return c, nil
}

// waitListening polls until the child accepts connections on addr.
func (c *child) waitListening(ctx context.Context, addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during start-up:\n%s", c.name, c.log)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s did not listen on %s within 20s:\n%s", c.name, addr, c.log)
}

// stop interrupts the child so it drains and reports, kills it if it has not
// exited after five seconds, and waits until it has been reaped.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

// fleet is the router and its workers.
type fleet struct {
	workers []*child
	router  *child
	stopped bool
}

// startFleet launches the workers, then the router pointed at them, and
// returns once the router has every worker on its ring and has learned the
// served model from them.
func startFleet(ctx context.Context, cfg runConfig, workers int) (*fleet, error) {
	f := &fleet{}
	fail := func(err error) (*fleet, error) {
		f.stop()
		return nil, err
	}
	ports, err := freePorts(2*workers + 2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < workers; i++ {
		w, err := startChild(ctx, cfg, fmt.Sprintf("worker-%d", i), "chet-serve", ports[2*i], ports[2*i+1],
			"-model", fleetModel, "-insecure", "-batch", strconv.Itoa(fleetBatch), "-workers", "1")
		if err != nil {
			return fail(err)
		}
		f.workers = append(f.workers, w)
	}
	var addrs []string
	for _, w := range f.workers {
		if err := w.waitListening(ctx, w.addr); err != nil {
			return fail(err)
		}
		addrs = append(addrs, w.addr)
	}
	r, err := startChild(ctx, cfg, "router", "chet-router", ports[2*workers], ports[2*workers+1],
		"-workers", strings.Join(addrs, ","), "-probe-interval", "100ms")
	if err != nil {
		return fail(err)
	}
	f.router = r
	if err := r.waitListening(ctx, r.metricsAddr); err != nil {
		return fail(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		s, err := scrape(r.metricsAddr)
		if err == nil && s["chet_router_live_workers"] == float64(workers) && s["chet_router_registry_models"] >= 1 {
			return f, nil
		}
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("router did not learn the fleet within 20s:\n%s", r.log))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (f *fleet) children() []*child {
	all := append([]*child(nil), f.workers...)
	if f.router != nil {
		all = append(all, f.router)
	}
	return all
}

// stop ends every child and then checks that none of their ports still
// accepts connections. It is safe to call twice.
func (f *fleet) stop() error {
	if f.stopped {
		return nil
	}
	f.stopped = true
	// The router first, so it does not spend its drain probing dead workers.
	if f.router != nil {
		f.router.stop()
	}
	for _, w := range f.workers {
		w.stop()
	}
	var left []string
	for _, c := range f.children() {
		for _, addr := range []string{c.addr, c.metricsAddr} {
			if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
				conn.Close()
				left = append(left, c.name+" "+addr)
			}
		}
	}
	if len(left) > 0 {
		return errors.New("listeners left behind after teardown: " + strings.Join(left, ", "))
	}
	return nil
}

// fleetCPU is the CPU time each live child has used so far.
type fleetCPU struct {
	workers []cpuTimes
	router  cpuTimes
}

func (f *fleet) cpu() fleetCPU {
	var out fleetCPU
	for _, w := range f.workers {
		c, _ := pidCPU(w.cmd.Process.Pid) // a vanished child reads as zero and fails the run elsewhere
		out.workers = append(out.workers, c)
	}
	out.router, _ = pidCPU(f.router.cmd.Process.Pid)
	return out
}

// fleetRSS is each live child's peak resident set in MiB.
type fleetRSS struct {
	workers []float64
	router  float64
}

func (f *fleet) peakRSS() (fleetRSS, error) {
	var out fleetRSS
	for _, w := range f.workers {
		r, err := peakRSSMiB(strconv.Itoa(w.cmd.Process.Pid))
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.name, err)
		}
		out.workers = append(out.workers, r)
	}
	r, err := peakRSSMiB(strconv.Itoa(f.router.cmd.Process.Pid))
	if err != nil {
		return out, fmt.Errorf("router: %w", err)
	}
	out.router = r
	return out, nil
}
