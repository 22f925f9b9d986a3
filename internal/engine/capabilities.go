package engine

// TopologyObserver is the optional elasticity observability capability:
// replicated coordinator engines report their replica-set topology — which
// replicas serve each hash partition, their health, their translated
// watermarks — plus the anti-entropy counters. The serving layer embeds it
// in /healthz so operators (and the chaos e2e) can see failover state
// without querying.
type TopologyObserver interface {
	Topology() Topology
}

// Topology describes a replicated scatter-gather tier at one instant.
type Topology struct {
	// Partitions lists the replica set of each hash partition, indexed by
	// partition ID.
	Partitions []PartitionTopology `json:"partitions"`
	// AntiEntropyChecks counts completed background divergence checks.
	AntiEntropyChecks int64 `json:"anti_entropy_checks"`
	// AntiEntropyMismatches counts checks whose two replicas disagreed
	// bitwise at the same watermark — the replica-divergence alarm. Any
	// non-zero value is an alarm condition.
	AntiEntropyMismatches int64 `json:"anti_entropy_mismatches"`
	// AntiEntropyErrors counts fragment runs the anti-entropy sweep could
	// not complete (replica unreachable, query failed). A climbing value
	// with flat AntiEntropyChecks means the divergence watch is wedged,
	// not quiet.
	AntiEntropyErrors int64 `json:"anti_entropy_errors"`
	// MinCoverage is the configured population-fraction floor below which
	// degraded merges are refused.
	MinCoverage float64 `json:"min_coverage"`
}

// PartitionTopology is one hash partition's replica set.
type PartitionTopology struct {
	// Replicas in failover-preference order; Replicas[0] is the preferred
	// (primary) serving replica.
	Replicas []ReplicaTopology `json:"replicas"`
	// Watermark is the partition's confirmed watermark — the best over its
	// non-quarantined replicas — translated onto the coordinator's global
	// row axis. The min over partitions is the bound every merged
	// snapshot's Watermark obeys.
	Watermark int64 `json:"watermark"`
}

// ReplicaTopology is one replica's observed state.
type ReplicaTopology struct {
	// Name identifies the replica (a remote address, or the backend
	// engine's name for in-process replicas).
	Name string `json:"name"`
	// Healthy reflects the last health probe / query outcome.
	Healthy bool `json:"healthy"`
	// Synced is false once the replica has missed a routed ingest batch
	// (it still serves, at an honestly stale watermark) — a rebalance
	// handoff is what brings it back in sync.
	Synced bool `json:"synced"`
	// Quarantined marks a replica whose state was caught diverging from
	// its siblings (bitwise mismatch at a common watermark, or rows it was
	// never routed). It is excluded from query fan-out and ingest entirely
	// until re-prepared and readmitted through the rebalance path.
	Quarantined bool `json:"quarantined,omitempty"`
	// Addr is the replica's dialable address, empty for in-process
	// replicas. Persisted with the control-plane topology so a standby
	// coordinator can re-dial the data plane at takeover.
	Addr string `json:"addr,omitempty"`
	// Watermark is the replica's confirmed local watermark translated onto
	// the coordinator's global row axis.
	Watermark int64 `json:"watermark"`
}

// DerivedObserver is the optional derived-state observability capability:
// an engine that keeps structures derived from its table alone, holding no
// query's answer, reports their size. The serving layer embeds it in
// /healthz as "derived".
type DerivedObserver interface {
	Derived() Derived
}

// Derived is an engine's derived state at one instant.
type Derived struct {
	BlockTables BlockTables `json:"block_tables"`
}

// BlockTables is a shared scanner's block-table ledger (README.md, "Block
// tables"): the bytes of the tables it keeps, over how many shapes, the cap
// those bytes stay under, and the shapes evicted to stay under it.
type BlockTables struct {
	Bytes     int64 `json:"bytes"`
	Shapes    int   `json:"shapes"`
	Cap       int64 `json:"cap"`
	Evictions int64 `json:"evictions"`
}
