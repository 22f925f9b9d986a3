package shard_test

import (
	"encoding/json"
	"testing"

	"idebench/internal/durable"
	"idebench/internal/shard"
)

// FuzzReduceCoordState feeds the coordinator journal reducer arbitrary
// record sequences (the input is a JSON list of durable.StateRecord). The
// reducer must never panic, and any state it accepts must be one watermark
// translation can run on: one version log per partition, each log's global
// versions strictly increasing and its local versions never decreasing, and
// Global equal to every log's last global version.
//
//	go test ./internal/shard -run '^$' -fuzz '^FuzzReduceCoordState$' -fuzztime 10s
func FuzzReduceCoordState(f *testing.F) {
	seed := func(recs ...durable.StateRecord) {
		b, err := json.Marshal(recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	rec := func(kind string, payload any) durable.StateRecord {
		b, err := json.Marshal(payload)
		if err != nil {
			f.Fatal(err)
		}
		return durable.StateRecord{Kind: kind, Payload: b}
	}
	state := rec("state", json.RawMessage(`{"global":100,"confidence":0.95,"seed":1,`+
		`"steps":[[{"local":60,"global":100}],[{"local":40,"global":100}]],`+
		`"parts":[[{"name":"p0r0","synced":true}],[{"name":"p1r0","synced":true}]]}`))
	step := rec("step", map[string]any{"targets": []int64{70, 45}, "global": 115})
	add := rec("topology", shard.TopologyEvent{Op: "add", Partition: 1, Name: "p1r1", Addr: "127.0.0.1:1"})
	quarantine := rec("topology", shard.TopologyEvent{Op: "quarantine", Partition: 0, Name: "p0r0"})
	remove := rec("topology", shard.TopologyEvent{Op: "remove", Partition: 1, Name: "p1r0"})
	seed()
	seed(state)
	seed(state, step, add, quarantine, remove)
	seed(state, step, state, step)
	seed(step, state)
	seed(state, rec("step", map[string]any{"targets": []int64{70}, "global": 115}))
	seed(state, rec("topology", shard.TopologyEvent{Op: "add", Partition: 7, Name: "x"}))
	seed(state, rec("future-kind", map[string]int{"x": 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []durable.StateRecord
		if json.Unmarshal(data, &recs) != nil {
			return
		}
		st, err := shard.ReduceCoordState(recs)
		if err != nil || st == nil {
			return
		}
		if len(st.Steps) != len(st.Parts) {
			t.Fatalf("accepted %d version logs for %d partitions", len(st.Steps), len(st.Parts))
		}
		for i, steps := range st.Steps {
			if len(steps) == 0 {
				t.Fatalf("accepted partition %d without a base step", i)
			}
			for k := 1; k < len(steps); k++ {
				if steps[k].Global <= steps[k-1].Global {
					t.Fatalf("accepted partition %d step %d: global %d after %d", i, k, steps[k].Global, steps[k-1].Global)
				}
				if steps[k].Local < steps[k-1].Local {
					t.Fatalf("accepted partition %d step %d: local %d after %d", i, k, steps[k].Local, steps[k-1].Local)
				}
			}
			if last := steps[len(steps)-1].Global; last != st.Global {
				t.Fatalf("accepted partition %d ending at global %d, state at %d", i, last, st.Global)
			}
		}
	})
}
