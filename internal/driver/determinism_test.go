package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/enginetest"
	"idebench/internal/groundtruth"
	"idebench/internal/workflow"
)

// TestWorkflowGenerationDeterministic pins the -seed contract: the same
// seed must generate byte-identical workflow sets, across independent
// generator instances. A hidden map iteration or time dependence in the
// generator shows up here as a diff.
func TestWorkflowGenerationDeterministic(t *testing.T) {
	genOnce := func() []byte {
		db := enginetest.SmallDB(5000, 3)
		gen, err := workflow.NewGenerator(db.Fact)
		if err != nil {
			t.Fatal(err)
		}
		flows, err := gen.GenerateSet(2, 14, 77)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := workflow.WriteJSON(&buf, flows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := genOnce(), genOnce()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed generated different workflow JSON (%d vs %d bytes)", len(a), len(b))
	}
}

// replayRecords runs the full pipeline — dataset, generated workflows,
// prepared engine, driver replay on a pure-virtual clock — and marshals the
// records. Everything is seeded and the clock advances only by think time,
// so two calls must agree byte-for-byte, timestamps and metrics included.
func replayRecords(t *testing.T) []byte {
	t.Helper()
	db := enginetest.SmallDB(20000, 7)
	e := exactdb.New()
	// One worker: parallel chunk-stealing changes float accumulation order
	// between runs, which is real scheduling nondeterminism rather than the
	// hidden map/time dependence this test hunts.
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
	recs := replay(t, e, groundtruth.New(db), Config{
		TimeRequirement: 10 * time.Second,
		ThinkTime:       2 * time.Millisecond,
		DataSizeLabel:   "20k",
		Clock:           simClock(), // huge grace: deadlines never force-fire
	}, flows...).Records
	if len(recs) == 0 {
		t.Fatal("replay produced no records")
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Golden SHA-256 digests of the marshalled records of the three SimClock
// fixtures below. They pin what a replay delivers — queries, metrics,
// staleness and virtual timestamps — so a refactor of the driver that moves
// any field shows up here rather than only as a run-to-run difference.
const (
	goldenReplayDigest       = "3b186a4e4b46403a3087e5ff1d26c0ff7ce8189be2c14c8887a51492418a1acb"
	goldenMultiUserDigest    = "c9aa0b5556ffa536a4df2d485f31a884df503f741b2cd56fe029e335d59d5b68"
	goldenIngestReplayDigest = "9faf3c9ab75e720209d2299b3d2f3d020296bb419b508985b6d428d5fe35253d"
)

// checkDeterministic fails unless two runs' records are byte-identical and
// match the golden digest.
func checkDeterministic(t *testing.T, a, b []byte, golden string) {
	t.Helper()
	if !bytes.Equal(a, b) {
		i := firstDiff(a, b)
		lo := max(i-80, 0)
		t.Fatalf("same seed produced different records at byte %d:\n run1: …%s…\n run2: …%s…",
			i, clip(a, lo, i+80), clip(b, lo, i+80))
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != golden {
		t.Fatalf("records digest %s, want golden %s", got, golden)
	}
}

// TestReplayDeterministic asserts the same seed yields identical Record
// sequences — SQL text, metrics and virtual timestamps — across two full
// runs. Metrics are accumulated in floating point over result bins, so this
// also guards the sorted-iteration contract in metrics.Evaluate.
func TestReplayDeterministic(t *testing.T) {
	checkDeterministic(t, replayRecords(t), replayRecords(t), goldenReplayDigest)
}

// TestMultiUserReplayDeterministic runs the concurrent multi-user replay
// twice and compares the record streams with timestamps scrubbed: several
// users share one virtual timeline, so when each sleeps relative to the
// others depends on goroutine scheduling, but what they ask and what they
// get back must not.
func TestMultiUserReplayDeterministic(t *testing.T) {
	runOnce := func() []byte {
		db := enginetest.SmallDB(20000, 7)
		e := exactdb.New()
		if err := e.Prepare(db, engine.Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
		gen, err := workflow.NewGenerator(db.Fact)
		if err != nil {
			t.Fatal(err)
		}
		flows, err := gen.GenerateSet(1, 10, 99)
		if err != nil {
			t.Fatal(err)
		}
		recs := replay(t, e, groundtruth.New(db), Config{
			TimeRequirement: 10 * time.Second,
			ThinkTime:       2 * time.Millisecond,
			Clock:           simClock(),
			Users:           4,
			Seed:            5,
		}, flows...).Records
		for i := range recs {
			recs[i].StartTime = time.Time{}
			recs[i].EndTime = time.Time{}
		}
		data, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	checkDeterministic(t, runOnce(), runOnce(), goldenMultiUserDigest)
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func clip(b []byte, lo, hi int) []byte {
	if hi > len(b) {
		hi = len(b)
	}
	if lo > hi {
		lo = hi
	}
	return b[lo:hi]
}
