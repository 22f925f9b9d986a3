package driver

import (
	"fmt"
	"testing"
	"time"

	"idebench/internal/engine/exactdb"
	"idebench/internal/engine/progressive"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

// multiFlows builds n small distinct workflows against the test fixture.
func multiFlows(n int) []*workflow.Workflow {
	flows := make([]*workflow.Workflow, n)
	for i := range flows {
		a, b := fmt.Sprintf("w%d_a", i), fmt.Sprintf("w%d_b", i)
		flows[i] = &workflow.Workflow{
			Name: fmt.Sprintf("flow-%02d", i), Type: workflow.Mixed,
			Interactions: []workflow.Interaction{
				{Kind: workflow.KindCreateViz, Viz: a, Spec: vizSpec(a)},
				{Kind: workflow.KindCreateViz, Viz: b, Spec: vizSpec(b)},
				{Kind: workflow.KindLink, From: a, To: b},
				{Kind: workflow.KindSelect, Viz: a, Predicate: &workflowPredicate},
			},
		}
	}
	return flows
}

var workflowPredicate = query.Predicate{
	Field: "carrier", Op: query.OpIn, Values: []string{"AA"},
}

func TestReplayRecordsPerUser(t *testing.T) {
	gt, e := prepared(t, exactdb.New(), 20000)
	// The SimClock timeline is shared by all users: any user's virtual
	// think sleep advances every other user's pending deadline. The TR must
	// therefore dwarf the aggregate virtual think time, not just one gap.
	res := replay(t, e, gt, Config{
		TimeRequirement: 100 * time.Hour, ThinkTime: 50 * time.Second, Clock: simClock(),
		Users: 4, Seed: 7,
	}, multiFlows(8)...)
	if res.Users != 4 {
		t.Fatalf("got %d users, want 4", res.Users)
	}
	// 8 flows × 4 query-producing interactions (create, create, link
	// refresh, select update) = 32 records.
	if len(res.Records) != 32 {
		t.Fatalf("got %d records, want 32", len(res.Records))
	}
	seenUsers := map[int]int{}
	for i, r := range res.Records {
		if r.ID != i {
			t.Errorf("record %d has ID %d, want run-unique renumbering", i, r.ID)
		}
		if r.Users != 4 {
			t.Errorf("record %d has Users=%d, want 4", i, r.Users)
		}
		seenUsers[r.User]++
		if r.Metrics.TRViolated {
			t.Errorf("record %d violated a generous TR", i)
		}
		if r.Metrics.MissingBins != 0 {
			t.Errorf("exact engine under concurrency should be perfect: %+v", r.Metrics)
		}
	}
	for u := 0; u < 4; u++ {
		if seenUsers[u] != 8 {
			t.Errorf("user %d produced %d records, want 8 (2 flows × 4 queries)", u, seenUsers[u])
		}
	}
	if res.WallClock <= 0 {
		t.Error("wall clock not measured")
	}
	if res.QueriesPerSec() <= 0 {
		t.Error("throughput not derived")
	}
}

func TestReplaySharedScanEngine(t *testing.T) {
	gt, e := prepared(t, progressive.New(progressive.Config{}), 60000)
	res := replay(t, e, gt, Config{TimeRequirement: 5 * time.Second, Clock: simClock(), Users: 3, Seed: 7},
		multiFlows(3)...)
	for _, r := range res.Records {
		if !r.Metrics.HasResult {
			t.Errorf("progressive user query delivered nothing: %+v", r)
		}
	}
}

func TestReplayCapsUsersAtWorkflows(t *testing.T) {
	gt, e := prepared(t, exactdb.New(), 2000)
	res := replay(t, e, gt, Config{TimeRequirement: time.Second, Clock: simClock(), Users: 16}, multiFlows(2)...)
	if res.Users != 2 {
		t.Fatalf("16 users over 2 workflows should cap at 2 active users, got %d", res.Users)
	}
	for _, r := range res.Records {
		if r.Users != 2 {
			t.Errorf("Users=%d, want the effective user count 2", r.Users)
		}
	}
}

func TestThinkJitterDeterministic(t *testing.T) {
	think := func(seed int64) []time.Duration {
		cfg := Config{ThinkTime: 8 * time.Millisecond, ThinkJitter: DefaultThinkJitter, Seed: seed}
		u := newUser("exactdb", &cfg, 1, 2)
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = u.thinkTime()
		}
		return out
	}
	a, b := think(3), think(3)
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different jitter at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != 8*time.Millisecond {
			varied = true
		}
		if min, max := 6*time.Millisecond, 10*time.Millisecond; a[i] < min || a[i] > max {
			t.Errorf("jittered think %v outside ±25%% of 8ms", a[i])
		}
	}
	if !varied {
		t.Error("jitter stream never varied from the base think time")
	}
	c := think(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical jitter streams")
	}
}
