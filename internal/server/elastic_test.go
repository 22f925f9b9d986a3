package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"idebench/internal/engine"
	"idebench/internal/enginetest"
)

// getHealth fetches base/healthz, decoded both as the Health document and
// as a raw key map (for key-presence assertions).
func getHealth(t *testing.T, base string) (Health, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	return h, raw
}

// topoEngine gives an engine the topology-observer capability, standing in
// for a coordinator.
type topoEngine struct {
	engine.Engine
	topo engine.Topology
}

func (e topoEngine) Topology() engine.Topology { return e.topo }

// TestHealthSchemaVersioned asserts the /healthz document is the exported,
// schema-5 Health struct for each server shape: live state top-level, the
// admission block always and with exactly its schema-4 counters, the
// durable block only with a data directory, the topology block only on a
// coordinator, the derived block only on an engine that reports one — the
// progressive engine's block-table ledger, after one query recorded a
// shape, counting its bytes under the table's column bytes — and none of
// the schema-2 shard fields that restated the topology.
func TestHealthSchemaVersioned(t *testing.T) {
	f := newFixture(t, Options{})
	sess := f.eng.OpenSession()
	h, err := sess.StartQuery(enginetest.CountByCarrier())
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	sess.Close()
	topo := engine.Topology{
		Partitions: []engine.PartitionTopology{
			{Replicas: []engine.ReplicaTopology{{Name: "p0r0", Healthy: true, Synced: true}}, Watermark: 120},
			{Replicas: []engine.ReplicaTopology{{Name: "p1r0", Healthy: true, Synced: true}}, Watermark: 100},
		},
		MinCoverage: 0.25,
	}
	cases := []struct {
		name         string
		eng          engine.Engine
		opts         Options
		wantTopology bool
		wantDurable  bool
		wantDerived  bool
	}{
		{name: "standalone", eng: f.eng, wantDerived: true},
		{name: "durable", eng: f.eng, opts: Options{Durable: &fakeDurable{status: recoveredStatus()}}, wantDurable: true, wantDerived: true},
		{name: "coordinator", eng: topoEngine{Engine: f.eng, topo: topo}, opts: Options{Role: "coord"}, wantTopology: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.opts.Rows = int64(f.db.Fact.NumRows())
			hsrv := httptest.NewServer(New(c.eng, c.opts))
			defer hsrv.Close()
			h, raw := getHealth(t, hsrv.URL)
			if h.SchemaVersion != 5 || HealthSchemaVersion != 5 {
				t.Errorf("schema_version = %d (const %d), want 5", h.SchemaVersion, HealthSchemaVersion)
			}
			if h.Version != ProtoVersion {
				t.Errorf("version = %d, want %d", h.Version, ProtoVersion)
			}
			if h.Role != c.opts.Role {
				t.Errorf("role = %q, want %q", h.Role, c.opts.Role)
			}
			for _, key := range []string{"conns", "inflight", "watermark", "scan_consumers", "admission"} {
				if _, ok := raw[key]; !ok {
					t.Errorf("missing top-level %q", key)
				}
			}
			for _, key := range []string{"shards", "shard_watermarks", "min_shard_watermark", "admitted", "recovered"} {
				if _, ok := raw[key]; ok {
					t.Errorf("schema-2 key %q is still top-level", key)
				}
			}
			var adm map[string]json.RawMessage
			if err := json.Unmarshal(raw["admission"], &adm); err != nil {
				t.Fatal(err)
			}
			admKeys := slices.Sorted(maps.Keys(adm))
			wantAdm := []string{"admitted", "conns_rejected", "dropped_intermediates", "idle_disconnects",
				"rejected_draining", "rejected_overload", "rejected_per_conn", "shed_late"}
			if !slices.Equal(admKeys, wantAdm) {
				t.Errorf("admission keys = %v, want %v", admKeys, wantAdm)
			}
			if _, ok := raw["topology"]; ok != c.wantTopology {
				t.Errorf("topology block present = %v, want %v", ok, c.wantTopology)
			}
			if c.wantTopology && (len(h.Topology.Partitions) != 2 || h.Topology.Partitions[1].Watermark != 100) {
				t.Errorf("topology block not faithfully surfaced: %+v", h.Topology)
			}
			if _, ok := raw["durable"]; ok != c.wantDurable {
				t.Errorf("durable block present = %v, want %v", ok, c.wantDurable)
			}
			if c.wantDurable && *h.Durable != recoveredStatus() {
				t.Errorf("durable block not faithfully surfaced: %+v", h.Durable)
			}
			if _, ok := raw["derived"]; ok != c.wantDerived {
				t.Errorf("derived block present = %v, want %v", ok, c.wantDerived)
			}
			if c.wantDerived {
				var d map[string]map[string]json.RawMessage
				if err := json.Unmarshal(raw["derived"], &d); err != nil {
					t.Fatal(err)
				}
				if keys := slices.Sorted(maps.Keys(d["block_tables"])); !slices.Equal(keys, []string{"bytes", "cap", "evictions", "shapes"}) {
					t.Errorf("derived.block_tables keys = %v", keys)
				}
				bt := h.Derived.BlockTables
				if bt.Shapes != 1 || bt.Bytes <= 0 || bt.Cap != f.db.Fact.Bytes() || bt.Evictions != 0 {
					t.Errorf("derived.block_tables = %+v, want one shape's bytes under a %d B cap", bt, f.db.Fact.Bytes())
				}
			}
		})
	}
}

// TestRebalanceEndpoint covers the admin endpoint: wired, it accepts only
// "add" and "remove", forwards them to the hook, and maps hook errors to 409;
// unwired, it 404s.
func TestRebalanceEndpoint(t *testing.T) {
	var got []RebalanceRequest
	f := newFixture(t, Options{Rebalance: func(req RebalanceRequest) error {
		got = append(got, req)
		if req.Op == "remove" {
			return fmt.Errorf("refusing to remove the last replica")
		}
		return nil
	}})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(f.hsrv.URL+"/rebalance", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(`{"op":"add","partition":1,"addr":"127.0.0.1:9999"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	if len(got) != 1 || got[0].Op != "add" || got[0].Partition != 1 || got[0].Addr != "127.0.0.1:9999" {
		t.Fatalf("hook saw %+v", got)
	}
	if resp := post(`{"op":"remove","partition":0,"name":"p0/r0/x"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("hook error status = %d, want 409", resp.StatusCode)
	}
	// Ops the endpoint does not wire never reach the hook: "rebalance" (the
	// checkpoint-streaming handoff) is in-process only.
	for _, body := range []string{`{"op":"shuffle"}`, `{"op":"rebalance","partition":0,"addr":"127.0.0.1:9999"}`} {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", body, resp.StatusCode)
		}
	}
	if len(got) != 2 {
		t.Fatalf("hook called for a refused op: %+v", got)
	}
	if resp, err := http.Get(f.hsrv.URL + "/rebalance"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}

	// Without the hook the endpoint does not exist.
	plain := newFixture(t, Options{})
	resp, err := http.Post(plain.hsrv.URL+"/rebalance", "application/json", bytes.NewBufferString(`{"op":"add"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unwired status = %d, want 404", resp.StatusCode)
	}
}

// TestRemotePing asserts the client-side health probe reflects actual
// reachability: OK against a live server, an error once it is gone.
func TestRemotePing(t *testing.T) {
	f := newFixture(t, Options{})
	rem, err := NewRemote(f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if err := rem.Ping(); err != nil {
		t.Fatalf("ping against live server: %v", err)
	}
	f.hsrv.Close()
	if err := rem.Ping(); err == nil {
		t.Fatal("ping against a dead server succeeded")
	}
}
