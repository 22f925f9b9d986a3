package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/datagen"
	"idebench/internal/dataset"
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

// TestCmdRunRemote replays through `run -addr` against an in-process
// server.Server on a real loopback listener — the CLI half of the network
// path (cmdServe's flag wiring and drain are covered by the CI e2e job).
func TestCmdRunRemote(t *testing.T) {
	const rows = 60000
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
	srv := server.New(p.Engine, server.Options{
		Rows: int64(rows),
		Seed: 1,
		// Fast polling so even this small dataset streams intermediates.
		PollInterval: 50 * time.Microsecond,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(context.Background())

	if err := cmdRun([]string{
		"-addr", l.Addr().String(), "-rows", "60000", "-tr", "2s", "-think", "0s",
		"-count", "2", "-interactions", "5", "-users", "2",
		"-maxviol", "0", "-expect-stream",
	}); err != nil {
		t.Fatal(err)
	}

	// A -rows or -seed mismatch must fail fast, before any replay could
	// evaluate against ground truth from the wrong dataset.
	if err := cmdRun([]string{
		"-addr", l.Addr().String(), "-rows", "5000", "-tr", "2s", "-think", "0s",
		"-count", "1", "-interactions", "4",
	}); err == nil {
		t.Fatal("run with mismatched -rows succeeded")
	}
	if err := cmdRun([]string{
		"-addr", l.Addr().String(), "-rows", "60000", "-seed", "2", "-tr", "2s", "-think", "0s",
		"-count", "1", "-interactions", "4",
	}); err == nil {
		t.Fatal("run with mismatched -seed succeeded")
	}
}
