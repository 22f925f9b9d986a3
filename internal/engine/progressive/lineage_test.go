package progressive

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/enginetest"
	"idebench/internal/ingest"
)

// TestPinnedFinalSurvivesAppend runs a query to Done, lands a batch that
// re-arms its cached state, and only then fetches: the handle must still
// answer with the exact final of the version it completed at — Complete,
// and bitwise what a cold prepare of that version answers, for the
// rendered result and the partial alike.
func TestPinnedFinalSurvivesAppend(t *testing.T) {
	db := enginetest.SmallDB(10*dataset.BlockRows, 91)
	// One worker folds the blocks in ascending order, so two engines prepared
	// alike accumulate bit for bit the same.
	opts := engine.Options{Seed: 5, Parallelism: 1}
	e := New(Config{})
	if err := e.Prepare(db, opts); err != nil {
		t.Fatal(err)
	}
	donor := enginetest.SmallDB(2000, 92)
	h := ingest.NewHarness(db, ingest.NewFixedSource(ingest.FromTable(donor.Fact, 0, 2000)), ingest.EngineSink{A: e})
	sess := e.OpenSession()
	defer sess.Close()
	q := enginetest.AvgDelayByDistance()
	hdl, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hdl.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("query did not complete")
	}
	old := e.Watermark()
	if _, err := h.Ingest(2000); err != nil {
		t.Fatal(err)
	}
	res := hdl.Snapshot()
	part := hdl.(engine.PartialSnapshotter).PartialSnapshot()
	if !res.Complete || res.Watermark != old {
		t.Fatalf("fetched after an append: complete=%v at watermark %d, want the complete final at %d",
			res.Complete, res.Watermark, old)
	}
	if !part.Complete || part.Watermark != old {
		t.Fatalf("partial fetched after an append: complete=%v at watermark %d, want the complete final at %d",
			part.Complete, part.Watermark, old)
	}

	cold := New(Config{})
	if err := cold.Prepare(db, opts); err != nil {
		t.Fatal(err)
	}
	coldSess := cold.OpenSession()
	defer coldSess.Close()
	coldHdl, err := coldSess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want := enginetest.WaitResult(t, coldHdl, 30*time.Second)
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("pinned final differs from a cold prepare at watermark %d:\n got %+v\nwant %+v", old, res, want)
	}
	if wantPart := coldHdl.(engine.PartialSnapshotter).PartialSnapshot(); !reflect.DeepEqual(part, wantPart) {
		t.Fatalf("pinned partial differs from a cold prepare at watermark %d", old)
	}
}

// TestParkedAppendDoesNotBlockQueries parks an Append after it has
// published the next view and before it extends the scan to it. Opening a
// session and starting a query must return meanwhile; once the Append
// resumes, that query and one started after it must be exact at the
// watermarks they name.
func TestParkedAppendDoesNotBlockQueries(t *testing.T) {
	db := enginetest.SmallDB(30000, 95)
	e := New(Config{})
	if err := e.Prepare(db, engine.Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	donor := enginetest.SmallDB(1500, 96)
	h := ingest.NewHarness(db, ingest.NewFixedSource(ingest.FromTable(donor.Fact, 0, 1500)), ingest.EngineSink{A: e})

	parked, resume := make(chan struct{}), make(chan struct{})
	var unpark sync.Once
	testHookAppendPublished = func() {
		close(parked)
		<-resume
	}
	ingested := make(chan error, 1)
	go func() {
		_, err := h.Ingest(1500)
		ingested <- err
	}()
	defer func() {
		unpark.Do(func() { close(resume) })
		<-ingested
		testHookAppendPublished = nil
	}()
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("Append never reached the hook")
	}

	q := enginetest.AvgDelayByDistance()
	type started struct {
		sess engine.Session
		hdl  engine.Handle
		err  error
	}
	startedCh := make(chan started, 1)
	go func() {
		sess := e.OpenSession()
		hdl, err := sess.StartQuery(q)
		startedCh <- started{sess, hdl, err}
	}()
	var during engine.Handle
	select {
	case s := <-startedCh:
		defer s.sess.Close()
		if s.err != nil {
			t.Fatal(s.err)
		}
		during = s.hdl
	case <-time.After(10 * time.Second):
		t.Fatal("StartQuery waited for a parked Append")
	}
	unpark.Do(func() { close(resume) })
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
	ingested <- nil // for the deferred drain

	sess := e.OpenSession()
	defer sess.Close()
	after, err := sess.StartQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	for name, hdl := range map[string]engine.Handle{"started while parked": during, "started after": after} {
		res := enginetest.WaitResult(t, hdl, 30*time.Second)
		if !res.Complete {
			t.Fatalf("query %s: not complete after Done", name)
		}
		if live := e.Watermark(); res.Watermark > live {
			t.Fatalf("query %s: watermark %d ahead of live %d", name, res.Watermark, live)
		}
		gt, err := h.TruthAt(q, res.Watermark)
		if err != nil {
			t.Fatal(err)
		}
		if err := enginetest.ResultsEqual(gt, res, 1e-9); err != nil {
			t.Fatalf("query %s at watermark %d: %v", name, res.Watermark, err)
		}
	}
}
