package driver

import (
	"encoding/json"
	"testing"
	"time"

	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/enginetest"
	"idebench/internal/ingest"
	"idebench/internal/workflow"
)

// ingestReplayRecords runs the full ingest-aware pipeline — dataset,
// generated workflows with interleaved ingest events, a fresh engine, a
// fresh harness over a deterministic batch stream, replay on a pure-virtual
// clock — and marshals the records. Everything is seeded, so two calls must
// agree byte-for-byte: queries, metrics, staleness, virtual timestamps.
func ingestReplayRecords(t *testing.T) []byte {
	t.Helper()
	db := enginetest.SmallDB(20000, 7)
	e := exactdb.New()
	if err := e.Prepare(db, engine.Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	gen, err := workflow.NewGenerator(db.Fact)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := gen.GenerateSet(1, 12, 42)
	if err != nil {
		t.Fatal(err)
	}
	flows = workflow.InterleaveIngestAll(flows, 3, 400)

	// A deterministic batch stream cut from the table itself: slice i is
	// rows [i*400, (i+1)*400), identical across runs.
	var batches []*ingest.Batch
	for i := 0; i*400+400 <= db.NumRows() && i < 32; i++ {
		batches = append(batches, ingest.FromTable(db.Fact, i*400, (i+1)*400))
	}
	h := ingest.NewHarness(db, ingest.NewFixedSource(batches...), ingest.EngineSink{A: e})

	recs := replay(t, e, h, Config{
		TimeRequirement: 10 * time.Second,
		ThinkTime:       2 * time.Millisecond,
		DataSizeLabel:   "20k",
		Clock:           simClock(),
		IngestSink:      h,
	}, flows...).Records
	if len(recs) == 0 {
		t.Fatal("ingest replay produced no records")
	}
	if h.IngestedRows() == 0 {
		t.Fatal("ingest replay applied no batches")
	}
	// Every delivered result in this synchronous-absorption setup must be
	// fresh: the engine appends before the next interaction queries.
	for _, rec := range recs {
		if rec.Metrics.StalenessRows != 0 {
			t.Fatalf("record %d has staleness %v, want 0 (synchronous absorption)",
				rec.ID, rec.Metrics.StalenessRows)
		}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestIngestReplayDeterministic pins the determinism satellite: an
// interleaved query+ingest workflow replayed twice on SimClock yields
// byte-identical record streams.
func TestIngestReplayDeterministic(t *testing.T) {
	checkDeterministic(t, ingestReplayRecords(t), ingestReplayRecords(t), goldenIngestReplayDigest)
}

// TestIngestReplayEvaluatesAtVersion checks the version-aware evaluation
// path end-to-end: a replay whose queries always see the freshest version
// must produce zero error against the versioned truth even though the table
// grew mid-run (evaluating against the final table would show phantom
// missing rows for early queries).
func TestIngestReplayEvaluatesAtVersion(t *testing.T) {
	data := ingestReplayRecords(t)
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Metrics.TRViolated {
			t.Fatalf("record %d violated a 10s TR", r.ID)
		}
		if r.Metrics.MissingBins != 0 {
			t.Fatalf("record %d missing %v of its bins against its version's truth",
				r.ID, r.Metrics.MissingBins)
		}
	}
}
