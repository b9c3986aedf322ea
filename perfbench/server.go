package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/bpmax-go/bpmax"
)

// Server is one bpmaxd process started by the benchmark.
type Server struct {
	cmd    *exec.Cmd
	Base   string // http://host:port
	stderr *tailBuffer
	done   chan error
	http   *http.Client
}

// tailBuffer keeps the last 8 KiB the server wrote to stderr, for error
// reports; the server's logs are not otherwise read.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-8<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// StartServer launches bin with flags on a free loopback port and waits
// until it has written its address. The caller must Stop it.
func StartServer(ctx context.Context, bin, dir string, flags []string) (*Server, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("bpmaxd-%d.addr", time.Now().UnixNano()))
	defer os.Remove(addrFile)
	// The server runs at nice 10 so the load generator, which shares the
	// host's CPUs with it, wakes on time: open-loop requests then go out
	// when due instead of waiting for a fold to yield a CPU.
	args := append([]string{"-n", "10", bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile}, flags...)
	s := &Server{
		cmd:    exec.Command("nice", args...),
		stderr: &tailBuffer{},
		done:   make(chan error, 1),
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	s.cmd.Stdout = s.stderr
	s.cmd.Stderr = s.stderr
	// If the benchmark itself is killed, take the server down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bpmaxd: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			s.Base = "http://" + strings.TrimSpace(string(b))
			return s, nil
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("bpmaxd exited before listening: %v\n%s", err, s.stderr)
		case <-ctx.Done():
			s.Stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("bpmaxd did not listen within 30s\n%s", s.stderr)
		}
	}
}

// WaitHealthy polls /healthz until it answers 200.
func (s *Server) WaitHealthy(ctx context.Context) error {
	for {
		resp, err := s.http.Get(s.Base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after 20 seconds. It returns once the process is gone.
func (s *Server) Stop() error {
	s.http.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("bpmaxd drain: %v\n%s", err, s.stderr)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("bpmaxd did not drain within 20s; killed")
	}
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *Server) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// getJSON fetches path and decodes its JSON body into v.
func (s *Server) getJSON(path string, v any) error {
	resp, err := s.http.Get(s.Base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Metrics fetches the server's /metrics document.
func (s *Server) Metrics() (bpmax.MetricsSnapshot, error) {
	var m bpmax.MetricsSnapshot
	err := s.getJSON("/metrics", &m)
	return m, err
}
