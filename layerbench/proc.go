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
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live tracks every process group the benchmark started, so an
// interrupted run still kills them all (see killAll).
var live = struct {
	sync.Mutex
	pids map[int]bool
}{pids: map[int]bool{}}

// start launches a program in its own process group, with stderr kept in
// a buffer (bounded by what the program writes; krongen and kronserve
// log a few lines).
func start(bin string, args []string, stderr io.Writer) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stdout = io.Discard
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	live.pids[cmd.Process.Pid] = true
	live.Unlock()
	return cmd, nil
}

// reap waits for cmd and forgets its process group.
func reap(cmd *exec.Cmd) error {
	err := cmd.Wait()
	live.Lock()
	delete(live.pids, cmd.Process.Pid)
	live.Unlock()
	return err
}

// killGroup SIGKILLs cmd's whole process group.
func killGroup(cmd *exec.Cmd) { _ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }

// killAll kills every process group still running.
func killAll() {
	live.Lock()
	defer live.Unlock()
	for pid := range live.pids {
		_ = syscall.Kill(-pid, syscall.SIGKILL)
	}
}

// procRun is the outcome of one program run under a deadline.
type procRun struct {
	maxRSS int64 // bytes, from wait4
	stderr string
	err    error // nonzero exit or deadline
}

// runAll starts every argument list as its own process, all at once, and
// waits for all of them; past the deadline every group still running is
// killed and the run counts as timed out.
func runAll(bin string, argvs [][]string, deadline time.Duration) []procRun {
	out := make([]procRun, len(argvs))
	cmds := make([]*exec.Cmd, len(argvs))
	bufs := make([]*bytes.Buffer, len(argvs))
	for i, argv := range argvs {
		bufs[i] = new(bytes.Buffer)
		cmd, err := start(bin, argv, &lockedWriter{w: bufs[i]})
		if err != nil {
			out[i].err = err
			continue
		}
		cmds[i] = cmd
	}
	timer := time.AfterFunc(deadline, func() {
		for _, c := range cmds {
			if c != nil {
				killGroup(c)
			}
		}
	})
	var wg sync.WaitGroup
	for i, c := range cmds {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := reap(c)
			if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
				out[i].maxRSS = ru.Maxrss << 10
			}
			if err != nil {
				out[i].err = fmt.Errorf("%s %s: %v", filepath.Base(bin), strings.Join(argvs[i], " "), err)
			}
		}()
	}
	wg.Wait()
	expired := !timer.Stop()
	for i := range out {
		out[i].stderr = bufs[i].String()
		if expired {
			out[i].err = fmt.Errorf("deadline %v expired", deadline)
		} else if out[i].err != nil {
			out[i].err = fmt.Errorf("%w: %s", out[i].err, lastLine(out[i].stderr))
		}
	}
	return out
}

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

var gomaxprocsLine = regexp.MustCompile(`running with GOMAXPROCS=(\d+)`)

// reportedGOMAXPROCS parses the GOMAXPROCS krongen reports on stderr.
func reportedGOMAXPROCS(stderr string) int {
	if m := gomaxprocsLine.FindStringSubmatch(stderr); m != nil {
		n, _ := strconv.Atoi(m[1])
		return n
	}
	return 0
}

// freePorts reserves n distinct loopback ports by listening on port 0,
// then releases them for the programs under test to bind.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// server is one kronserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *bytes.Buffer
}

// startServer launches kronserve on a free loopback port with every
// other flag at its default, and waits until /healthz answers.
func startServer(bin string) (*server, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	log := new(bytes.Buffer)
	cmd, err := start(filepath.Join(bin, "kronserve"), []string{"-addr", addr}, &lockedWriter{w: log})
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: log}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("kronserve not ready within 10s: %s", lastLine(log.String()))
}

// peakRSS reads the server's high-water resident set (VmHWM) in bytes.
func (s *server) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks kronserve to drain (SIGTERM) and kills it if it has not
// exited within five seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	t := time.AfterFunc(5*time.Second, func() { killGroup(s.cmd) })
	_ = reap(s.cmd)
	t.Stop()
}

// register uploads a factor's edge-list file under its name.
func (s *server) register(ctx context.Context, f factor) error {
	body, err := os.ReadFile(f.path)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/factors?name="+f.name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("registering %s: HTTP %d", f.name, resp.StatusCode)
	}
	return nil
}
