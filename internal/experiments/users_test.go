package experiments

import (
	"bytes"
	"strings"
	"testing"
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
