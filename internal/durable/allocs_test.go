//go:build !race

package durable_test

import (
	"runtime"
	"testing"

	"idebench/internal/core"
	"idebench/internal/durable"
)

// TestCheckpointTailAllocs pins "no table-sized buffer": checkpointing a
// 200k-row view whose newest checkpoint holds all but its last 1k rows
// streams one small tail segment, so it allocates well under a megabyte —
// the table itself is ~16 MB.
func TestCheckpointTailAllocs(t *testing.T) {
	db, err := core.BuildData(200_000, false, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, t.TempDir(), durable.Options{})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	base := st.Status().LastCheckpointBytes
	grown := growDB(t, db, testBatches(t, 1, 1000))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := st.Checkpoint(grown, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("checkpointing a 1k-row tail allocated %d bytes, want < 1 MiB", got)
	}
	if got := st.Status().LastCheckpointBytes; got*50 > base {
		t.Fatalf("tail checkpoint wrote %d bytes against the base's %d", got, base)
	}
}
