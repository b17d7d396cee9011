package main

import (
	"bufio"
	"fmt"
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

// Spawning, measuring and reaping real sebdb-server processes.

// buildServer compiles cmd/sebdb-server from the module above
// benchmark/ into binDir and returns the binary's path. The go tool's
// own cache makes repeat builds cheap.
func buildServer(repoRoot, binDir string) (string, error) {
	out := filepath.Join(binDir, "sebdb-server")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/sebdb-server")
	cmd.Dir = repoRoot
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sebdb-server: %v\n%s", err, msg)
	}
	return out, nil
}

// Server is one spawned sebdb-server.
type Server struct {
	Addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// reaper remembers every live server so a failure or a signal anywhere
// in the run can kill them all.
var reaper struct {
	mu   sync.Mutex
	live map[*Server]bool
}

func killAllServers() {
	reaper.mu.Lock()
	var all []*Server
	for s := range reaper.live {
		all = append(all, s)
	}
	reaper.mu.Unlock()
	for _, s := range all {
		s.Kill()
	}
}

var servingRE = regexp.MustCompile(`serving on (\S+), height`)

// startServer launches the binary on dataDir with the workload's pinned
// flags, listening on an ephemeral loopback port, and returns once the
// server has printed its bound address (which it does after recovery).
func startServer(bin, dataDir, logPath string, flags []string) (proc, error) {
	args := append([]string{"-dir", dataDir, "-listen", "127.0.0.1:0", "-log-level", "warn"}, flags...)
	cmd := exec.Command(bin, args...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close() //sebdb:ignore-err the pipe error is the one to report
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close() //sebdb:ignore-err the start error is the one to report
		return nil, err
	}
	s := &Server{cmd: cmd, log: logf, done: make(chan struct{})}
	reaper.mu.Lock()
	if reaper.live == nil {
		reaper.live = map[*Server]bool{}
	}
	reaper.live[s] = true
	reaper.mu.Unlock()

	addr := make(chan string, 1) // one send: the first matching line
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		cmd.Wait() //sebdb:ignore-err the exit status of a killed server carries no information
		close(s.done)
	}()
	select {
	case s.Addr = <-addr:
		return s, nil
	case <-s.done:
		s.release()
		return nil, fmt.Errorf("sebdb-server exited during start-up; see %s", logPath)
	case <-time.After(60 * time.Second):
		s.Kill()
		return nil, fmt.Errorf("sebdb-server did not start serving within 60s; see %s", logPath)
	}
}

func (s *Server) release() {
	reaper.mu.Lock()
	delete(reaper.live, s)
	reaper.mu.Unlock()
	s.log.Close() //sebdb:ignore-err the server's stderr log is diagnostic only
}

// Address is where the server listens.
func (s *Server) Address() string { return s.Addr }

// Kill sends SIGKILL and waits until the process has been reaped. Safe
// to call more than once.
func (s *Server) Kill() {
	reaper.mu.Lock()
	live := reaper.live[s]
	reaper.mu.Unlock()
	if !live {
		return
	}
	s.cmd.Process.Signal(syscall.SIGKILL) //sebdb:ignore-err the process may already have exited
	<-s.done
	s.release()
}

// cpuSeconds returns the user+system CPU time the process has used so
// far, from /proc/<pid>/stat.
func (s *Server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after the
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	const clockTick = 100 // USER_HZ, fixed at 100 on Linux
	return (ut + st) / clockTick, nil
}

// rssMB returns the process's resident set size right now.
func (s *Server) rssMB() (float64, error) { return vmRSS(strconv.Itoa(s.cmd.Process.Pid)) }

// vmRSS reads VmRSS, in MB, from /proc/<pid>/status ("self" works too).
func vmRSS(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%s/status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of a prepared data directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}
