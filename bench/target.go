package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"bsched/internal/server"
)

// daemonConfig is how a serving workload runs bschedd: the daemon's
// flags, mirrored as a server.Config for in-process servers.
type daemonConfig struct {
	cacheEntries int    // -cache; 0 keeps the daemon default
	cacheDir     string // -cache-dir; empty disables persistence
}

func (c daemonConfig) args() []string {
	args := []string{"-addr", "127.0.0.1:0", "-log-format", "none"}
	if c.cacheEntries != 0 {
		args = append(args, "-cache", fmt.Sprint(c.cacheEntries))
	}
	if c.cacheDir != "" {
		args = append(args, "-cache-dir", c.cacheDir)
	}
	return args
}

// serverConfig is the in-process equivalent of args, with request
// logging off as the daemon runs with -log-format none.
func (c daemonConfig) serverConfig() server.Config {
	return server.Config{CacheCapacity: c.cacheEntries, CacheDir: c.cacheDir}
}

// target is a running bschedd: a child process, or an in-process server
// when the benchmark runs without a daemon binary (the package tests).
type target interface {
	base() string // http://host:port
	pid() int     // the process whose peak RSS is reported
	// cpu returns the CPU time the target has used since it started.
	cpu() (time.Duration, error)
	stop() error
}

// start launches a daemon with cfg and returns once it answers /healthz.
// An empty bin serves in-process instead.
func start(bin string, cfg daemonConfig) (target, error) {
	var t target
	var err error
	if bin == "" {
		t, err = startInProcess(cfg)
	} else {
		t, err = startDaemon(bin, cfg)
	}
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(t.base()); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// probeClient serves the health checks and /metrics scrapes; its timeout
// keeps a hung daemon from hanging the run.
var probeClient = &http.Client{Timeout: 10 * time.Second}

func waitHealthy(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probeClient.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// daemon is a bschedd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once the daemon's stdout hits EOF
}

func startDaemon(bin string, cfg daemonConfig) (*daemon, error) {
	cmd := exec.Command(bin, cfg.args()...)
	cmd.Stderr = os.Stderr
	// A benchmark killed mid-run must not leave a daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bschedd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "bschedd: listening on "); ok {
				select {
				case addr <- a:
				default: // only the first address is read
				}
			}
		}
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.drained:
		cmd.Wait()
		return nil, errors.New("bschedd exited before listening")
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("bschedd did not report its address within 60s")
	}
}

func (d *daemon) base() string                { return "http://" + d.addr }
func (d *daemon) pid() int                    { return d.cmd.Process.Pid }
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.pid()) }

// stop sends SIGTERM, which makes the daemon drain, flush its persistent
// cache and exit 0, and waits for it; a daemon still running after 20 s
// is killed.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("bschedd exit: %w", err)
	}
	return nil
}

// inProcess is a server.Server behind a loopback listener in this
// process.
type inProcess struct {
	srv  *server.Server
	hs   *http.Server
	ln   net.Listener
	cpu0 time.Duration // this process's CPU time before the server started
}

func startInProcess(cfg daemonConfig) (*inProcess, error) {
	cpu0 := selfCPU()
	srv, err := server.New(cfg.serverConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	p := &inProcess{srv: srv, hs: &http.Server{Handler: srv.Handler()}, ln: ln, cpu0: cpu0}
	go p.hs.Serve(ln)
	return p, nil
}

func (p *inProcess) base() string                { return "http://" + p.ln.Addr().String() }
func (p *inProcess) pid() int                    { return os.Getpid() }
func (p *inProcess) cpu() (time.Duration, error) { return selfCPU() - p.cpu0, nil }

func (p *inProcess) stop() error {
	err := p.hs.Shutdown(context.Background())
	p.srv.Close()
	return err
}

// newClient returns an HTTP client that opens at most conns connections
// to the daemon: load generation uses no more connections than the
// machine has cores.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends r and reads the whole response. It returns the body only
// when keep is set (or the status is not 200); otherwise the body is read
// into a pooled buffer and dropped, so the generator does not allocate
// per response.
func post(c *http.Client, base string, r *request, keep bool) (int, []byte, error) {
	resp, err := c.Post(base+r.path(), "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep && resp.StatusCode == http.StatusOK {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getMetrics scrapes /metrics.
func getMetrics(base string) (scrape, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}
