package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/faultnet"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/server"
)

// servedProc is one `idebench serve` child process with its captured output
// and the address it actually bound.
type servedProc struct {
	cmd  *exec.Cmd
	addr string
	// eof is closed once the process's stdout reached EOF, so out holds
	// everything it printed. cmd.Wait closes the pipe, possibly before the
	// last lines were read: wait for eof first.
	eof chan struct{}

	mu  sync.Mutex
	out bytes.Buffer
}

func (p *servedProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

var serveAddrRe = regexp.MustCompile(`serving .* on (127\.0\.0\.1:\d+)`)

// startServe launches the built binary's serve command on an ephemeral port
// and waits until it prints the bound address.
func startServe(t *testing.T, bin string, args ...string) *servedProc {
	t.Helper()
	return startProc(t, bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
}

// startProc launches the built binary with the given argv (any serving
// subcommand) and waits until it prints its bound address banner.
func startProc(t *testing.T, bin string, argv ...string) *servedProc {
	t.Helper()
	p, addrCh := launchProc(t, bin, argv...)
	select {
	case p.addr = <-addrCh:
	case <-time.After(60 * time.Second):
		t.Fatalf("server did not come up; output so far:\n%s", p.output())
	}
	return p
}

// launchProc starts the binary and returns immediately with a channel that
// yields the bound address once the serving banner appears — for processes
// (a warm standby) that deliberately do not bind until much later.
func launchProc(t *testing.T, bin string, argv ...string) (*servedProc, <-chan string) {
	t.Helper()
	p := &servedProc{cmd: exec.Command(bin, argv...), eof: make(chan struct{})}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = &lockedWriter{mu: &p.mu, buf: &p.out}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			_ = p.cmd.Process.Kill()
			_ = p.cmd.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line + "\n")
			p.mu.Unlock()
			if m := serveAddrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	return p, addrCh
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w *lockedWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(b)
}

func getHealthz(t *testing.T, addr string) server.Health {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestServeCrashRecoveryE2E is the crash wall's end-to-end act: a real
// `idebench serve -data-dir` process ingesting live batches through the
// fault-injecting proxy is killed with SIGKILL (kill -9) mid-ingest — no
// drain, no flush, no close handshake — then restarted on the same data
// directory. The restarted server must report a recovered, batch-aligned
// watermark that covers every batch it acknowledged before dying, and a
// count query against it must match, bitwise, the client's own ground
// truth of exactly that data version.
func TestServeCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kill -9s a real server process")
	}
	const (
		rows      = 20000
		batchRows = 400
	)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "idebench.test.bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "state")
	serveArgs := []string{
		"-engine", "progressive", "-rows", strconv.Itoa(rows), "-seed", "1",
		"-data-dir", dataDir,
		// Aggressive background checkpointing so the crash lands in the
		// interesting regime: checkpoints and WAL appends interleaving.
		"-checkpoint-interval", "100ms", "-checkpoint-wal-bytes", strconv.Itoa(64 << 10),
	}

	// Boot 1: cold — builds the dataset, bootstraps the checkpoint.
	p1 := startServe(t, bin, serveArgs...)

	// The client dials through the chaos proxy, so the kill also exercises
	// the proxied-connection teardown path.
	px, err := faultnet.New(p1.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	db, err := core.BuildData(rows, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ingest.NewSource(rows, 99)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := server.NewRemote(px.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Prepare(db, engine.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	h := ingest.NewHarness(db, src, remote)

	// Pump batches until the process dies under us; every batch is recorded
	// in the client-side ground-truth lineage before it is sent.
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		for {
			if _, err := h.Ingest(batchRows); err != nil {
				return
			}
		}
	}()

	// Wait for a few acknowledged batches (an ack means the server already
	// fsynced the batch to the WAL), then kill -9 mid-stream.
	deadline := time.Now().Add(60 * time.Second)
	for remote.Watermark() < rows+3*batchRows {
		if time.Now().After(deadline) {
			t.Fatalf("no ingest progress; server output:\n%s", p1.output())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = p1.cmd.Wait()
	<-pumpDone
	acked := remote.Watermark()
	sent := h.Watermark()
	remote.Close()
	t.Logf("killed mid-ingest: acked watermark %d, sent %d (base %d)", acked, sent, rows)
	if acked < rows+3*batchRows {
		t.Fatalf("acked watermark regressed: %d", acked)
	}

	// Boot 2: recovery on the same data directory.
	p2 := startServe(t, bin, serveArgs...)
	hz := getHealthz(t, p2.addr)
	if hz.Durable == nil || !hz.Durable.Recovered {
		t.Fatalf("restart did not recover durable state: %+v\noutput:\n%s", hz.Durable, p2.output())
	}
	w := hz.Watermark
	// Every acknowledged batch survived (WAL-before-ack), nothing beyond
	// what the client sent appeared, and the watermark is batch-aligned.
	if w < acked {
		t.Fatalf("recovered watermark %d lost acknowledged data (acked %d)", w, acked)
	}
	if w > sent {
		t.Fatalf("recovered watermark %d exceeds everything sent (%d)", w, sent)
	}
	if (w-rows)%batchRows != 0 {
		t.Fatalf("recovered watermark %d is not batch-aligned (base %d, batch %d)", w, rows, batchRows)
	}
	if hz.Durable.Watermark != w {
		t.Fatalf("healthz durable.watermark %d != served watermark %d", hz.Durable.Watermark, w)
	}

	// Bitwise check: the served state at watermark w must answer exactly
	// like the client's ground truth of data version w.
	vdb := h.ViewAt(w)
	if got := int64(vdb.Fact.NumRows()); got != w {
		t.Fatalf("client lineage has no view at watermark %d (nearest %d)", w, got)
	}
	remote2, err := server.NewRemote(p2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()
	if err := remote2.Prepare(vdb, engine.Options{Seed: 1}); err != nil {
		t.Fatalf("recovered server serves a different dataset: %v", err)
	}
	q := &query.Query{
		VizName: "crash_count", Table: vdb.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
	gt, err := h.TruthAt(q, w)
	if err != nil {
		t.Fatal(err)
	}
	sess := remote2.OpenSession()
	defer sess.Close()
	hdl, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hdl.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("query against recovered server did not complete")
	}
	res := hdl.Snapshot()
	if res == nil || !res.Complete {
		t.Fatalf("recovered server returned incomplete result: %+v", res)
	}
	if res.Watermark != w {
		t.Fatalf("result watermark %d, want %d", res.Watermark, w)
	}
	if len(res.Bins) != len(gt.Bins) {
		t.Fatalf("recovered count has %d bins, ground truth %d", len(res.Bins), len(gt.Bins))
	}
	for k, wv := range gt.Bins {
		gv, ok := res.Bins[k]
		if !ok || gv.Values[0] != wv.Values[0] {
			t.Fatalf("bin %v: recovered %v, ground truth exactly %v", k, gv, wv.Values[0])
		}
	}

	// The offline inspector must verify the post-crash directory clean.
	if err := cmdInspect([]string{"-data-dir", dataDir}); err != nil {
		t.Fatalf("inspect after crash recovery: %v", err)
	}

	// Graceful exit this time: drain, final checkpoint, close.
	sigtermDrain(t, p2, "server")

	// Boot 3: after a graceful drain the final checkpoint covers everything;
	// recovery replays an empty WAL tail.
	p3 := startServe(t, bin, serveArgs...)
	hz3 := getHealthz(t, p3.addr)
	if hz3.Durable == nil || !hz3.Durable.Recovered || hz3.Watermark != w {
		t.Fatalf("post-drain restart: %+v (durable %+v), want recovered at watermark %d", hz3, hz3.Durable, w)
	}
	if hz3.Durable.ReplayedBatches != 0 {
		t.Fatalf("post-drain restart replayed %d batches, want 0 (final checkpoint should cover the tail)", hz3.Durable.ReplayedBatches)
	}
}
