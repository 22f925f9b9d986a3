package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/datagen"
	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/report"
	"idebench/internal/server"
	"idebench/internal/workflow"
)

func TestCmdDatagenAndWorkloadgen(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "flights.csv")
	if err := cmdDatagen([]string{
		"-rows", "2000", "-seed-rows", "2000", "-seed", "3", "-out", csvPath, "-stats",
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := dataset.ReadCSVFile(csvPath, "flights", datagen.FlightsSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2000 {
		t.Errorf("generated rows = %d", tbl.NumRows())
	}

	flowsPath := filepath.Join(dir, "flows.json")
	if err := cmdWorkloadgen([]string{
		"-data", csvPath, "-count", "1", "-interactions", "6", "-out", flowsPath,
	}); err != nil {
		t.Fatal(err)
	}
	flows, err := workflow.LoadFile(flowsPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 5 { // one per type
		t.Errorf("workflows = %d, want 5", len(flows))
	}
}

func TestCmdRunMultiUser(t *testing.T) {
	dir := t.TempDir()
	detailed := filepath.Join(dir, "users.csv")
	if err := cmdRun([]string{
		"-engine", "progressive", "-rows", "10000", "-tr", "100ms", "-think", "0s",
		"-count", "4", "-interactions", "5", "-users", "4", "-detailed", detailed,
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(detailed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := report.ReadDetailedCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	users := map[int]bool{}
	for _, r := range recs {
		if r.Users != 4 {
			t.Fatalf("record Users=%d, want 4", r.Users)
		}
		users[r.User] = true
	}
	if len(users) != 4 {
		t.Errorf("records span %d users, want 4", len(users))
	}
}

func TestCmdRunWithGeneratedWorkload(t *testing.T) {
	dir := t.TempDir()
	detailed := filepath.Join(dir, "detailed.csv")
	if err := cmdRun([]string{
		"-engine", "exactdb", "-rows", "10000", "-tr", "100ms", "-think", "0s",
		"-count", "1", "-interactions", "5", "-detailed", detailed,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(detailed)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("detailed report empty")
	}
}

func TestCmdRunWithWorkflowFile(t *testing.T) {
	dir := t.TempDir()
	flowsPath := filepath.Join(dir, "flows.json")
	if err := cmdWorkloadgen([]string{
		"-rows", "5000", "-count", "1", "-interactions", "4", "-out", flowsPath,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{
		"-engine", "progressive", "-rows", "5000", "-tr", "50ms", "-think", "0s",
		"-workflows", flowsPath,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdView(t *testing.T) {
	dir := t.TempDir()
	flowsPath := filepath.Join(dir, "flows.json")
	if err := cmdWorkloadgen([]string{
		"-rows", "3000", "-count", "1", "-interactions", "4", "-out", flowsPath,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdView([]string{"-workflows", flowsPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdView([]string{"-workflows", flowsPath, "-dot"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdView([]string{"-workflows", flowsPath, "-name", "nope"}); err == nil {
		t.Error("missing workflow name should error")
	}
	if err := cmdView([]string{"-workflows", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing file should error")
	}
}

func TestCmdAnalyze(t *testing.T) {
	dir := t.TempDir()
	detailed := filepath.Join(dir, "detailed.csv")
	if err := cmdRun([]string{
		"-engine", "exactdb", "-rows", "5000", "-tr", "100ms", "-think", "0s",
		"-count", "1", "-interactions", "4", "-detailed", detailed,
	}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-detailed", detailed}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-detailed", detailed, "-by-type", "-effects=false"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-detailed", filepath.Join(dir, "missing.csv")}); err == nil {
		t.Error("missing file should error")
	}
}

func TestCmdExpUnknown(t *testing.T) {
	if err := cmdExp([]string{"-name", "bogus"}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestCmdRunUnknownEngine(t *testing.T) {
	if err := cmdRun([]string{"-engine", "bogus", "-rows", "1000"}); err == nil {
		t.Error("unknown engine should error")
	}
}

// prepareProgressive builds the rows-row dataset (seed 1) and prepares the
// progressive engine over it.
func prepareProgressive(t *testing.T, rows int) *core.Prepared {
	t.Helper()
	db, err := core.BuildData(rows, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := core.DefaultSettings()
	s.DataSize = rows
	p, err := core.Prepare("progressive", db, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serveLoopback serves eng with server.New on a 127.0.0.1 listener until
// the test ends and returns the bound address.
func serveLoopback(t *testing.T, eng engine.Engine, opts server.Options) string {
	t.Helper()
	srv := server.New(eng, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return l.Addr().String()
}

// captureStdout runs f with os.Stdout redirected and returns what f printed
// there together with f's error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	ferr := f()
	w.Close()
	b := <-out
	r.Close()
	t.Logf("output:\n%s", b)
	return string(b), ferr
}

// TestCmdRunRemote replays through `run -addr` against an in-process
// server.Server on a real loopback listener — the CLI half of the network
// path; TestServeCrashRecoveryE2E drives `serve` itself.
func TestCmdRunRemote(t *testing.T) {
	const rows = 60000
	p := prepareProgressive(t, rows)
	apply := ingest.NewApplier(p.DB, p.Engine.(engine.Appender)).Apply
	addr := serveLoopback(t, p.Engine, server.Options{
		Rows: int64(rows),
		Seed: 1,
		// Fast polling so even this small dataset streams intermediates.
		PollInterval: 50 * time.Microsecond,
		// A slow apply: every ack lands well after its batch was sent, so a
		// run that does not wait for its acks returns before the server
		// holds what it fed.
		Apply: func(b *ingest.Batch) (int64, error) {
			time.Sleep(100 * time.Millisecond)
			return apply(b)
		},
	})

	if err := cmdRun([]string{
		"-addr", addr, "-rows", "60000", "-tr", "2s", "-think", "0s",
		"-count", "2", "-interactions", "5", "-users", "2",
		"-maxviol", "0", "-expect-stream",
	}); err != nil {
		t.Fatal(err)
	}

	// A -rows or -seed mismatch must fail fast, before any replay could
	// evaluate against ground truth from the wrong dataset.
	if err := cmdRun([]string{
		"-addr", addr, "-rows", "5000", "-tr", "2s", "-think", "0s",
		"-count", "1", "-interactions", "4",
	}); err == nil {
		t.Fatal("run with mismatched -rows succeeded")
	}
	if err := cmdRun([]string{
		"-addr", addr, "-rows", "60000", "-seed", "2", "-tr", "2s", "-think", "0s",
		"-count", "1", "-interactions", "4",
	}); err == nil {
		t.Fatal("run with mismatched -seed succeeded")
	}

	// Live ingest over the wire: the batches ship as ingest frames, and run
	// returns only once the server has applied every batch it fed.
	out, err := captureStdout(t, func() error {
		return cmdRun([]string{
			"-addr", addr, "-rows", "60000", "-tr", "2s", "-think", "0s",
			"-count", "2", "-interactions", "5", "-users", "2",
			"-ingest-every", "3", "-ingest-rows", "500", "-maxviol", "0", "-expect-stream",
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	served := p.Engine.(engine.Watermarker).Watermark()
	m := regexp.MustCompile(`ingested (\d+) rows in \d+ batches \(live watermark (\d+)\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatal("run printed no ingest line")
	}
	ingested, _ := strconv.ParseInt(m[1], 10, 64)
	fed, _ := strconv.ParseInt(m[2], 10, 64)
	if ingested == 0 || fed != rows+ingested {
		t.Fatalf("run ingested %d rows to live watermark %d over a %d-row base", ingested, fed, rows)
	}
	if served != fed {
		t.Fatalf("server watermark %d when run returned, run fed %d", served, fed)
	}
}

// TestCmdLoad drives an in-process server with a short open-loop Poisson
// schedule through the load subcommand.
func TestCmdLoad(t *testing.T) {
	const rows = 20000
	p := prepareProgressive(t, rows)
	addr := serveLoopback(t, p.Engine, server.Options{Rows: rows, Seed: 1})
	// A failover list dials its first address, as run and probe do.
	for _, list := range []string{addr, addr + "," + freePort(t)} {
		out, err := captureStdout(t, func() error {
			return cmdLoad([]string{
				"-addr", list, "-rows", strconv.Itoa(rows), "-schedule", "poisson",
				"-rate", "200", "-duration", "500ms", "-sessions", "2",
			})
		})
		if err != nil {
			t.Fatalf("-addr %s: %v", list, err)
		}
		m := regexp.MustCompile(`(?m)^completed (\d+) .*, errors (\d+)$`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("-addr %s: load printed no completion line", list)
		}
		if m[1] == "0" || m[2] != "0" {
			t.Fatalf("-addr %s: load completed %s queries with %s hard errors, want some and none", list, m[1], m[2])
		}
	}
}

// TestCmdProbe probes an in-process server and requires the printed
// outcome line to name a full answer whose count and digest are the
// engine's own.
func TestCmdProbe(t *testing.T) {
	const rows = 20000
	p := prepareProgressive(t, rows)
	addr := serveLoopback(t, p.Engine, server.Options{Rows: rows, Seed: 1})
	out, err := captureStdout(t, func() error {
		return cmdProbe([]string{"-addr", addr})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := resultDigest(runQueryToDone(t, p.Engine, antiEntropyQuery(), "in-process"))
	line := fmt.Sprintf("probe %s: full — count %d over ", addr, rows)
	if !strings.Contains(out, line) || !strings.Contains(out, fmt.Sprintf("complete true, fraction 1.0000, digest %016x\n", want)) {
		t.Fatalf("probe output lacks %q and the in-process digest %016x", line, want)
	}
	if err := cmdProbe([]string{"-addr", freePort(t), "-timeout", "5s"}); err == nil {
		t.Fatal("probe of an address nobody serves succeeded")
	}
}
