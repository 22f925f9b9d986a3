package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"idebench/internal/report"
)

// TestOverloadSweepSmoke runs a two-rung ladder — one rate comfortably under
// capacity, one far past the tightened caps — and asserts the sweep's
// structural guarantees: the knee appears, rejections are explicit, and no
// rate leaks scan consumers.
func TestOverloadSweepSmoke(t *testing.T) {
	// The high rung must be far past what the caps admit. At 5000/s the
	// 40k-row table's unfiltered queries, which merge block tables, leave
	// under 1% to reject (none on a busy machine); under the race detector
	// 5000/s rejects over 90%, and at 20000/s the admitted tail outgrows
	// the gate's 1.5 s.
	high := 20000.0
	if raceEnabled {
		high = 5000
	}
	var buf bytes.Buffer
	pts, err := OverloadSweepRates(Config{Rows: 40_000, Seed: 1, Out: &buf},
		[]float64{50, high}, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	for i, p := range pts {
		if p.Offered == 0 {
			t.Fatalf("point %d offered nothing", i)
		}
		if p.Errors != 0 {
			t.Fatalf("point %d saw %d hard errors", i, p.Errors)
		}
		if p.LeakedConsumers != 0 {
			t.Fatalf("point %d leaked %d scan consumers", i, p.LeakedConsumers)
		}
	}
	// The high rung offers thousands of arrivals at caps of 16 inflight:
	// the valves must have engaged.
	if pts[1].Rejected == 0 && pts[1].Shed == 0 {
		t.Fatalf("high rung engaged no overload valve: %+v", pts[1])
	}
	// The knee must exist. On an unloaded host it sits at the high rung,
	// but under -race or a busy machine even 50/s can shed a late query, so
	// only its presence is asserted, not its exact position.
	if knee := report.FindKnee(pts); knee < 0 {
		t.Fatalf("no knee found: %+v", pts)
	}
	if !strings.Contains(buf.String(), "knee at") {
		t.Fatalf("report missing knee line:\n%s", buf.String())
	}
	// Past the knee the admitted tail stays bounded: the generator's own
	// hard timeout is 2s, and shedding should keep finals well under it.
	if pts[1].Completed > 0 && pts[1].DoneP99 > 1500 {
		t.Fatalf("admitted done-p99 past the knee is %vms — shedding is not bounding the tail", pts[1].DoneP99)
	}
}
