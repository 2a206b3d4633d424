package repro

import (
	"bufio"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// This file is the acceptance test for the distributed serving
// subsystem at full fidelity: the 16-peer E2 transitive-closure chain
// running as three real OS processes — two `revere serve` nodes hosting
// peers [6:11) and [11:16), and one `revere query` coordinator holding
// the rest — must produce a byte-identical answer set to the all-local
// run of the same workload. (The in-process and loopback placements of
// the same differential are covered in internal/transport.)

// digestLine matches the query command's final output line.
var digestLine = regexp.MustCompile(`^answers (\d+) oracle (\d+) digest ([0-9a-f]+)$`)

// buildRevere compiles cmd/revere into a temp dir once per test run.
func buildRevere(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "revere")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/revere")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building revere: %v\n%s", err, out)
	}
	return bin
}

// serveProc is one running `revere serve` OS process.
type serveProc struct {
	addr string
	// prelude holds the stdout lines printed before the readiness line —
	// the durability test reads the "store ..." recovery summary there.
	prelude []string
	cmd     *exec.Cmd
	cancel  context.CancelFunc
}

// startServeProcess boots one `revere serve` OS process on an ephemeral
// port and waits for its readiness line, returning the address and a
// clean-shutdown function.
func startServeProcess(t *testing.T, bin, own string) (string, func() error) {
	p := startServeAt(t, bin, own, "127.0.0.1:0")
	return p.addr, p.shutdown
}

// startServeAt boots one `revere serve` OS process on the given listen
// address (use 127.0.0.1:0 for an ephemeral port) and waits for its
// readiness line. The churn test restarts a crashed server on its old
// fixed address this way; the durability test appends -data/-extra
// through extraArgs.
func startServeAt(t *testing.T, bin, own, listen string, extraArgs ...string) *serveProc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{"serve",
		"-listen", listen, "-seed", "1", "-peers", "16", "-rows", "10", "-own", own}, extraArgs...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cancel(); cmd.Wait() })

	sc := bufio.NewScanner(stdout)
	addr := ""
	var prelude []string
	deadline := time.After(30 * time.Second)
	lines := make(chan string, 4)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("serve %s exited before reporting readiness", own)
			}
			if rest, found := strings.CutPrefix(line, "listening "); found {
				addr = rest
			} else {
				prelude = append(prelude, line)
			}
		case <-deadline:
			t.Fatalf("serve %s never reported readiness", own)
		}
	}
	return &serveProc{addr: addr, prelude: prelude, cmd: cmd, cancel: cancel}
}

// shutdown stops the server cleanly: SIGINT, then waits for a zero
// exit.
func (p *serveProc) shutdown() error {
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	err := p.cmd.Wait()
	p.cancel()
	return err
}

// kill crashes the server: SIGKILL, no chance to flush or say goodbye —
// the churn harness's node failure.
func (p *serveProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cancel()
}

// runQueryProcess runs `revere query` with the given extra args and
// parses its answers/oracle/digest line.
func runQueryProcess(t *testing.T, bin string, extra ...string) (answers, oracle, digest string) {
	t.Helper()
	args := append([]string{"query", "-seed", "1", "-peers", "16", "-rows", "10"}, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("revere %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if m := digestLine.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			return m[1], m[2], m[3]
		}
	}
	t.Fatalf("no digest line in output:\n%s", out)
	return "", "", ""
}

// TestE2ThreeProcessChain boots the 16-peer chain as three OS
// processes, runs the distributed E2 query, checks the answer set is
// byte-identical to the all-local placement, and tears the deployment
// down cleanly (both servers must exit 0 on SIGINT).
func TestE2ThreeProcessChain(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and compiles the binary")
	}
	bin := buildRevere(t)

	// Placement (a): every peer local to one process.
	localAnswers, localOracle, localDigest := runQueryProcess(t, bin)
	if localAnswers != localOracle {
		t.Fatalf("all-local run incomplete: answers %s, oracle %s", localAnswers, localOracle)
	}

	// Placement (c): two serving nodes + one coordinator.
	addr1, shutdown1 := startServeProcess(t, bin, "6:11")
	addr2, shutdown2 := startServeProcess(t, bin, "11:16")
	answers, oracle, digest := runQueryProcess(t, bin,
		"-remote", "6:11="+addr1, "-remote", "11:16="+addr2)
	if answers != oracle {
		t.Errorf("distributed run incomplete: answers %s, oracle %s", answers, oracle)
	}
	if digest != localDigest {
		t.Errorf("distributed digest %s != all-local digest %s: answer sets differ", digest, localDigest)
	}

	// Clean teardown: SIGINT, zero exit.
	for i, shutdown := range []func() error{shutdown1, shutdown2} {
		if err := shutdown(); err != nil {
			t.Errorf("server %d did not shut down cleanly: %v", i+1, err)
		}
	}
}

// TestServeRejectsBadRange covers the command-line validation that
// needs no listener: an inverted serve range, and a word that is not a
// subcommand (which must fail with the usage text, not run the demo).
func TestServeRejectsBadRange(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the binary")
	}
	bin := buildRevere(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-own", "9:3"}, `range "9:3"`},
		{[]string{"bench"}, `unknown command "bench"`},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("revere %v: err = %v, want a non-zero exit:\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("revere %v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}
