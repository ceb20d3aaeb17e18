package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/dbserver into workdir/bin and returns the
// binary's path. It must run from the module root, which is where the
// benchmark is started from.
func buildServer(workdir string) (string, error) {
	bin := filepath.Join(workdir, "bin", "dbserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dbserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dbserver: %v\n%s", err, out)
	}
	return filepath.Abs(bin)
}

// serverProc is a running dbserver subprocess.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	mu     sync.Mutex
	stderr bytes.Buffer // everything the server logged, for diagnostics
	logged chan struct{}
}

// startServer launches dbserver on dir and waits until it reports its
// listening address on stderr.
func startServer(bin, dir string, cache int) (*serverProc, error) {
	flags := append([]string{"-addr", "127.0.0.1:0", "-dir", dir}, serverFlags...)
	if cache != 0 {
		flags = append(flags, "-cache", strconv.Itoa(cache))
	}
	p := &serverProc{cmd: exec.Command(bin, flags...), logged: make(chan struct{})}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.logged)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line + "\n")
			p.mu.Unlock()
			if _, a, ok := strings.Cut(line, " shards on "); ok {
				select {
				case addrc <- strings.TrimSpace(a):
				default:
				}
			}
		}
		io.Copy(io.Discard, pipe)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.logged: // stderr closed: the server exited before listening
	case <-time.After(30 * time.Second):
	}
	p.kill()
	return nil, fmt.Errorf("dbserver did not start: %s", p.log())
}

func (p *serverProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.TrimSpace(p.stderr.String())
}

// kill stops the server at once (SIGKILL) and reaps it.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.logged
	p.cmd.Wait()
}

// stop asks for a graceful shutdown (SIGTERM: drain, checkpoint, close)
// and reports how long the exit took and the process's peak resident
// set (VmHWM, read just before the signal: the rusage a parent gets
// from wait4 starts at the parent's own size at fork, so it measures
// the benchmark, not the server). A non-zero exit is an error.
func (p *serverProc) stop() (drain time.Duration, peakRSS int64, err error) {
	peakRSS = p.vmHWM()
	st := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() {
		<-p.logged // Wait closes the pipe; the reader must finish first
		done <- p.cmd.Wait()
	}()
	select {
	case err = <-done:
	case <-time.After(120 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return time.Since(st), peakRSS, fmt.Errorf("dbserver ignored SIGTERM for 120s: %s", p.log())
	}
	drain = time.Since(st)
	if err != nil {
		err = fmt.Errorf("dbserver exit: %v: %s", err, p.log())
	}
	return drain, peakRSS, err
}

// vmHWM reads the server's peak resident set size in bytes from
// /proc/<pid>/status; 0 if it cannot be read.
func (p *serverProc) vmHWM() int64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// cpuTime reads the server's user+system CPU time so far from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (p *serverProc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat: %q", raw)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat: %q", raw)
	}
	const clockTick = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ut+stt) * time.Second / clockTick, nil
}

// diskUsage sums a directory tree: bytes allocated (st_blocks, which a
// sparse file does not inflate) and apparent size.
func diskUsage(dir string) (allocated, apparent int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		apparent += fi.Size()
		if st, ok := fi.Sys().(*syscall.Stat_t); ok {
			allocated += st.Blocks * 512
		}
		return nil
	})
	return allocated, apparent, err
}

// syncFiles fsyncs every file under dir from outside the server, so the
// kernel's write-back of the preload is over before the measured phase
// starts instead of running beside it.
func syncFiles(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x2fc12fc1:
		return "zfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
