package enginetest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
)

// IngestScenario is the conformance case for the live-ingestion capability:
// concurrent user sessions keep querying while an ingester applies
// append-only batches through the harness, and after quiesce fresh queries
// must agree with ground truth over the final table — bitwise for COUNT
// aggregates (integers carry no fold-order slack), within float tolerance
// for value aggregates on exact engines, and by the sampling contract
// otherwise. Mid-ingest results are checked against the truth of the data
// version their watermark names, which is the whole point of watermarks:
// a result is never wrong, only possibly stale. Run it under -race — the
// interleaving of appends, dictionary interning and scans is the scenario.
func IngestScenario(t *testing.T, factory func() engine.Engine, exactWhenComplete bool) {
	t.Helper()
	db := SmallDB(40000, 123)
	e := factory()
	if err := e.Prepare(db, engine.Options{}); err != nil {
		t.Fatal(err)
	}
	app, ok := e.(engine.Appender)
	if !ok {
		t.Fatalf("engine %s does not implement engine.Appender", e.Name())
	}
	if w := app.Watermark(); w != int64(db.NumRows()) {
		t.Fatalf("prepared watermark %d, want %d", w, db.NumRows())
	}

	// Batches come from a donor table with the same schema but fresh value
	// draws (including carrier/state mixes that shift the distribution).
	donor := SmallDB(12000, 321)
	const batches = 6
	const batchRows = 1500
	var stream []*ingest.Batch
	for i := 0; i < batches; i++ {
		stream = append(stream, ingest.FromTable(donor.Fact, i*batchRows, (i+1)*batchRows))
	}
	h := ingest.NewHarness(db, ingest.NewFixedSource(stream...), ingest.EngineSink{A: app})

	const users = 3
	errCh := make(chan error, users*8+batches)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if err := ingestUser(e, h, u, exactWhenComplete); err != nil {
				errCh <- fmt.Errorf("user %d: %w", u, err)
			}
		}(u)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			if _, err := h.Ingest(batchRows); err != nil {
				errCh <- fmt.Errorf("ingest batch %d: %w", i, err)
				return
			}
			time.Sleep(time.Millisecond) // let queries interleave with appends
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Quiesce: every batch applied, every session drained. The engine's
	// watermark must have caught up, and fresh queries must answer for the
	// final table.
	want := int64(db.NumRows() + batches*batchRows)
	if w := app.Watermark(); w != want {
		t.Fatalf("post-quiesce watermark %d, want %d", w, want)
	}
	sess := e.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()

	countQ := CountByCarrier()
	countQ.VizName = "quiesce_count"
	gt, err := h.TruthAt(countQ, want)
	if err != nil {
		t.Fatal(err)
	}
	hdl, err := sess.StartQuery(countQ)
	if err != nil {
		t.Fatal(err)
	}
	res := WaitResult(t, hdl, 30*time.Second)
	if res == nil {
		t.Fatal("no result after quiesce")
	}
	if res.Watermark != want {
		t.Fatalf("quiesced result watermark %d, want %d", res.Watermark, want)
	}
	if exactWhenComplete {
		// Bitwise: COUNT bins are integers; any double-fold or lost row of
		// the ingested tail shows up as an exact mismatch.
		if len(res.Bins) != len(gt.Bins) {
			t.Fatalf("quiesced count has %d bins, want %d", len(res.Bins), len(gt.Bins))
		}
		for k, wv := range gt.Bins {
			gv, ok := res.Bins[k]
			if !ok || gv.Values[0] != wv.Values[0] {
				t.Fatalf("quiesced count bin %v: got %v, want exactly %v", k, gv, wv.Values[0])
			}
		}
	} else if err := looselyEqual(gt, res, countQ); err != nil {
		t.Fatalf("quiesced count diverged: %v", err)
	}

	avgQ := AvgDelayByDistance()
	avgQ.VizName = "quiesce_avg"
	gtAvg, err := h.TruthAt(avgQ, want)
	if err != nil {
		t.Fatal(err)
	}
	hdl2, err := sess.StartQuery(avgQ)
	if err != nil {
		t.Fatal(err)
	}
	res2 := WaitResult(t, hdl2, 30*time.Second)
	if res2 == nil {
		t.Fatal("no avg result after quiesce")
	}
	if exactWhenComplete {
		if err := ResultsEqual(gtAvg, res2, 1e-9); err != nil {
			t.Fatalf("quiesced avg diverged: %v", err)
		}
	}
}

// ingestUser is one session's script while batches land: issue concurrent
// rounds of dashboard queries, verify each against the truth of the data
// version its watermark names.
func ingestUser(e engine.Engine, h *ingest.Harness, u int, exact bool) error {
	sess := e.OpenSession()
	defer sess.Close()
	sess.WorkflowStart()
	defer sess.WorkflowEnd()

	shapes := MultiVizQueries(6)
	for round := 0; round < 4; round++ {
		qs := make([]*query.Query, 2)
		for i := range qs {
			q := shapes[(u+round+i)%len(shapes)]
			qc := *q
			qc.VizName = fmt.Sprintf("u%d_r%d_%d", u, round, i)
			qs[i] = &qc
		}
		handles := make([]engine.Handle, len(qs))
		for i, q := range qs {
			hdl, err := sess.StartQuery(q)
			if err != nil {
				return fmt.Errorf("start %s: %w", q.VizName, err)
			}
			handles[i] = hdl
		}
		for i, hdl := range handles {
			select {
			case <-hdl.Done():
			case <-time.After(30 * time.Second):
				return fmt.Errorf("%s did not complete", qs[i].VizName)
			}
			res := hdl.Snapshot()
			if res == nil {
				return fmt.Errorf("%s returned no result", qs[i].VizName)
			}
			if res.Watermark <= 0 {
				return fmt.Errorf("%s delivered without a watermark", qs[i].VizName)
			}
			if live := h.Watermark(); res.Watermark > live {
				return fmt.Errorf("%s watermark %d ahead of live %d", qs[i].VizName, res.Watermark, live)
			}
			gt, err := h.TruthAt(qs[i], res.Watermark)
			if err != nil {
				return err
			}
			switch {
			case exact && res.Complete:
				if err := ResultsEqual(gt, res, 1e-9); err != nil {
					return fmt.Errorf("%s diverged from its version's truth: %w", qs[i].VizName, err)
				}
			case exact:
				// Done closed because the query completed: the answer is the
				// exact final of the version it completed at, even when an
				// append has re-armed the engine's state since.
				return fmt.Errorf("%s: not complete after Done (watermark %d, %d of %d rows)",
					qs[i].VizName, res.Watermark, res.RowsSeen, res.TotalRows)
			default:
				if err := looselyEqual(gt, res, qs[i]); err != nil {
					return fmt.Errorf("%s diverged: %w", qs[i].VizName, err)
				}
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}
