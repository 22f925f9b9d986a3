package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/driver"
)

func TestUserSweepQuick(t *testing.T) {
	var buf bytes.Buffer
	rows, err := UserSweepUsers(quickCfg(&buf), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// quickCfg names both engines explicitly, so the sweep honours the list.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 2 engines × 2 user counts", len(rows))
	}
	byKey := map[string]ReplayRow{}
	for _, r := range rows {
		if r.Queries == 0 {
			t.Errorf("%s users=%d executed no queries", r.Driver, r.Users)
		}
		if r.QueriesPerSec <= 0 {
			t.Errorf("%s users=%d has no throughput", r.Driver, r.Users)
		}
		if r.Users == 2 && r.SpeedupVs1 == 0 {
			t.Errorf("%s users=2 missing speedup vs the 1-user baseline", r.Driver)
		}
		if r.SequentialMS <= 0 || r.SpeedupVsSequential <= 0 {
			t.Errorf("%s users=%d missing sequential baseline: %+v", r.Driver, r.Users, r)
		}
		byKey[r.Driver+"/"+string(rune('0'+r.Users))] = r
	}
	// 2 concurrent users replay 2 workflows; each user handles one, so the
	// 2-user group must hold both workflows' queries.
	for _, eng := range []string{"exactdb", "progressive"} {
		one, two := byKey[eng+"/1"], byKey[eng+"/2"]
		if two.Queries <= one.Queries {
			t.Errorf("%s: 2-user run (%d queries) should replay more than the 1-user run (%d)",
				eng, two.Queries, one.Queries)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "User scalability") || !strings.Contains(out, "speedup_vs_sequential") {
		t.Errorf("sweep output missing sections:\n%s", out)
	}
}

// TestUserSweepBaselineThinkSchedule pins the user sweep's like-for-like
// baseline. On a SimClock, where virtual time advances only by think time
// (every query finishes long before its deadline), the sequential
// baseline's replay of one flow starts every query at the same offset as
// the concurrent point's one-user replay of it, and that schedule is
// jittered like the concurrent points', not the constant think time.
func TestUserSweepBaselineThinkSchedule(t *testing.T) {
	cfg := quickCfg(nil).withDefaults()
	db, gt, flows, err := replaySetup(cfg, 1, 9000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Prepare("exactdb", db, engineSettings(cfg, cfg.Rows))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	schedule := func(dcfg driver.Config) []time.Duration {
		t.Helper()
		clock := driver.NewSimClock(start)
		clock.Grace = time.Minute
		dcfg.Clock, dcfg.TimeRequirement = clock, time.Hour
		res, err := driver.Replay(p.Engine, gt, dcfg, flows)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, len(res.Records))
		for i, r := range res.Records {
			out[i] = r.StartTime.Sub(start)
		}
		return out
	}
	// The baseline as UserSweepUsers runs it, the concurrent point as
	// replayPoint derives it, and the same replay with constant think times.
	baseline := schedule(replayConfig(cfg))
	concurrent := replayConfig(cfg)
	concurrent.Users = 1
	constant := replayConfig(cfg)
	constant.ThinkJitter = 0
	if !slices.Equal(baseline, schedule(concurrent)) {
		t.Fatalf("baseline and one-user concurrent schedules differ:\n%v\n%v", baseline, schedule(concurrent))
	}
	if slices.Equal(baseline, schedule(constant)) {
		t.Fatalf("baseline schedule %v is not jittered", baseline)
	}
}
