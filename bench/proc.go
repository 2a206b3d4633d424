package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// node is the driver's handle on one spawned `bench node` process.
type node struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	args []string // as given to startNode, for a restart

	addr      string
	replayed  int   // log records the node replayed on this start
	recoverNS int64 // its OpenDurablePeer time
}

// procs tracks every live node so an interrupted or failing driver
// still reaps them.
type procs struct {
	mu   sync.Mutex
	live map[*node]struct{}
}

func (p *procs) add(n *node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == nil {
		p.live = make(map[*node]struct{})
	}
	p.live[n] = struct{}{}
}

func (p *procs) remove(n *node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, n)
}

// killAll SIGKILLs and reaps every node still running.
func (p *procs) killAll() {
	p.mu.Lock()
	nodes := make([]*node, 0, len(p.live))
	for n := range p.live {
		nodes = append(nodes, n)
	}
	p.mu.Unlock()
	for _, n := range nodes {
		n.kill(p)
	}
}

// startNode re-executes this binary in node mode and waits for its
// "listening ADDR ..." line. listen is the address to bind; "" lets the
// node pick a free loopback port.
func (p *procs) startNode(listen string, args ...string) (*node, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	argv := append([]string{"node"}, args...)
	if listen != "" {
		argv = append(argv, "-listen", listen)
	}
	cmd := exec.Command(self, argv...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{cmd: cmd, in: in, out: bufio.NewReader(out), args: args}
	p.add(n)
	line, err := n.out.ReadString('\n')
	if err != nil {
		n.kill(p)
		return nil, fmt.Errorf("node exited before listening: %w", err)
	}
	f := strings.Fields(line)
	if len(f) != 4 || f[0] != "listening" {
		n.kill(p)
		return nil, fmt.Errorf("unexpected node greeting %q", line)
	}
	n.addr = f[1]
	n.replayed, _ = strconv.Atoi(strings.TrimPrefix(f[2], "replayed="))
	n.recoverNS, _ = strconv.ParseInt(strings.TrimPrefix(f[3], "recover_ns="), 10, 64)
	return n, nil
}

// call sends one command line and returns the fields after "ok".
func (n *node) call(cmd string) ([]string, error) {
	if _, err := io.WriteString(n.in, cmd+"\n"); err != nil {
		return nil, fmt.Errorf("node %s: %w", cmd, err)
	}
	line, err := n.out.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", cmd, err)
	}
	f := strings.Fields(line)
	if len(f) == 0 || f[0] != "ok" {
		return nil, fmt.Errorf("node %s: %s", cmd, strings.TrimSpace(line))
	}
	return f[1:], nil
}

// callInts is call for replies made only of integers.
func (n *node) callInts(cmd string, want int) ([]int64, error) {
	f, err := n.call(cmd)
	if err != nil {
		return nil, err
	}
	if len(f) != want {
		return nil, fmt.Errorf("node %s: got %d fields, want %d", cmd, len(f), want)
	}
	out := make([]int64, want)
	for i, s := range f {
		if out[i], err = strconv.ParseInt(s, 10, 64); err != nil {
			return nil, fmt.Errorf("node %s: %w", cmd, err)
		}
	}
	return out, nil
}

// dumpSpans fetches the node's in-memory spans as JSON lines.
func (n *node) dumpSpans() ([]string, error) {
	if _, err := io.WriteString(n.in, "dump-spans\n"); err != nil {
		return nil, err
	}
	var lines []string
	for {
		line, err := n.out.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(line)
		if line == "end" {
			return lines, nil
		}
		lines = append(lines, line)
	}
}

// kill SIGKILLs the node and waits until it is reaped.
func (n *node) kill(p *procs) {
	n.cmd.Process.Kill()
	n.in.Close()
	n.cmd.Wait()
	p.remove(n)
}

// stop ends the node cleanly by closing its stdin, falling back to
// SIGKILL if it does not exit.
func (n *node) stop(p *procs) {
	n.in.Close()
	done := make(chan struct{})
	go func() { n.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		n.cmd.Process.Kill()
		<-done
	}
	p.remove(n)
}
