package shard

import (
	"encoding/json"
	"fmt"
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/stats"
)

// The coordinator's control-plane journal. Everything a coordinator holds
// in memory that cannot be re-derived from the data plane is journaled
// through durable.StateLog: the partition map and replica membership (with
// sync and quarantine flags), the prepare options that fix the merge's
// z-score and the partitioning seed, and the global→local version-log
// steps that make watermark translation exact.
//
// Ordering contract: every mutation is applied first (to the replicas and
// to the coordinator's memory) and journaled before it is acknowledged to
// the caller. The in-memory side dies with the process, so a crash between
// apply and journal rolls the control plane back to the pre-operation
// state with nothing acked — consistent by construction. The one external
// residue is data-plane rows: replicas may have absorbed a batch whose
// step never got journaled. Recovery then sees every in-sync replica of a
// partition equally ahead of the journaled target, which the health loop's
// divergence audit deliberately does not treat as quarantine-worthy (a
// lone replica ahead of both the target and its siblings is divergence; a
// whole partition ahead in lockstep is an un-acked batch).

// ReplicaState is one replica's journaled control-plane entry.
type ReplicaState struct {
	Name string `json:"name"`
	// Addr is the replica's dialable address; empty for in-process
	// replicas, which cannot be re-attached by a recovering coordinator.
	Addr        string `json:"addr,omitempty"`
	Synced      bool   `json:"synced"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

// CoordState is the coordinator's full persisted control-plane state: the
// reduction of the journal, and the snapshot written at Prepare, Restore
// and every compaction.
type CoordState struct {
	// Global is the global data version: base rows + all journaled batches.
	Global int64 `json:"global"`
	// Confidence and Seed pin the prepare options every replica was (and
	// any future replica must be) prepared with.
	Confidence float64 `json:"confidence"`
	Seed       int64   `json:"seed"`
	// Steps is the per-partition local→global version log, ascending in
	// both coordinates; Steps[i][0] is partition i's base step.
	Steps [][]wmStep `json:"steps"`
	// Parts is the replica-set membership per partition, in failover
	// preference order.
	Parts [][]ReplicaState `json:"parts"`
}

// Clone deep-copies the state.
func (st *CoordState) Clone() *CoordState {
	out := &CoordState{Global: st.Global, Confidence: st.Confidence, Seed: st.Seed}
	out.Steps = make([][]wmStep, len(st.Steps))
	for i, s := range st.Steps {
		out.Steps[i] = append([]wmStep(nil), s...)
	}
	out.Parts = make([][]ReplicaState, len(st.Parts))
	for i, p := range st.Parts {
		out.Parts[i] = append([]ReplicaState(nil), p...)
	}
	return out
}

// TopologyEvent is one journaled membership change.
type TopologyEvent struct {
	// Op is one of "add", "remove", "quarantine".
	Op        string `json:"op"`
	Partition int    `json:"partition"`
	Name      string `json:"name"`
	Addr      string `json:"addr,omitempty"`
	Synced    bool   `json:"synced,omitempty"`
}

// stepEvent is one journaled version-log advance: the new per-partition
// local targets and the global version they map to.
type stepEvent struct {
	Targets []int64 `json:"targets"`
	Global  int64   `json:"global"`
}

// Journal kinds.
const (
	journalKindState    = "state"
	journalKindStep     = "step"
	journalKindTopology = "topology"
)

// compactEvery bounds journal growth: after this many incremental records
// the journal is rewritten as one snapshot. Steps dominate (one per ingest
// batch, ~100 bytes each), so the journal stays under a few hundred KB.
const compactEvery = 4096

// CoordJournal is the coordinator's persistence hook (Options.Journal),
// backed by a durable.StateLog. It maintains the running reduction of everything logged so compaction can rewrite the log
// as a single snapshot, and so recovery (State) is a field read.
type CoordJournal struct {
	mu   sync.Mutex
	log  *durable.StateLog
	cur  *CoordState
	incr int // incremental records since the last snapshot
}

// OpenCoordJournal opens (creating if absent) the coordinator journal in
// dir, reducing any recovered records. dir is conventionally
// <data-dir>/coord.
func OpenCoordJournal(dir string) (*CoordJournal, error) {
	log, err := durable.OpenStateLog(dir, nil)
	if err != nil {
		return nil, err
	}
	st, err := ReduceCoordState(log.Records())
	if err != nil {
		log.Close()
		return nil, err
	}
	return &CoordJournal{log: log, cur: st}, nil
}

// State returns the journal's current reduced state: nil when nothing was
// ever logged (a fresh boot that must Prepare from scratch).
func (j *CoordJournal) State() *CoordState {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cur == nil {
		return nil
	}
	return j.cur.Clone()
}

// LogState records a full snapshot, superseding everything before it, so
// the log is rewritten rather than extended.
func (j *CoordJournal) LogState(st *CoordState) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("shard: encode journal state: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Compact(durable.StateRecord{Kind: journalKindState, Payload: payload}); err != nil {
		return err
	}
	j.cur = st.Clone()
	j.incr = 0
	return nil
}

// LogStep records one version-log advance.
func (j *CoordJournal) LogStep(targets []int64, global int64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := stepEvent{Targets: append([]int64(nil), targets...), Global: global}
	if err := j.append(journalKindStep, ev); err != nil {
		return err
	}
	if j.cur != nil {
		applyStepEvent(j.cur, ev)
	}
	return nil
}

// LogTopology records one membership change.
func (j *CoordJournal) LogTopology(ev TopologyEvent) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.append(journalKindTopology, ev); err != nil {
		return err
	}
	if j.cur != nil {
		applyTopologyEvent(j.cur, ev)
	}
	return nil
}

// append writes one incremental record, compacting first when the journal
// has grown past the threshold. Callers hold j.mu.
func (j *CoordJournal) append(kind string, payload any) error {
	if j.incr >= compactEvery && j.cur != nil {
		snap, err := json.Marshal(j.cur)
		if err != nil {
			return fmt.Errorf("shard: encode journal state: %w", err)
		}
		if err := j.log.Compact(durable.StateRecord{Kind: journalKindState, Payload: snap}); err != nil {
			return err
		}
		j.incr = 0
	}
	if err := j.log.Append(kind, payload); err != nil {
		return err
	}
	j.incr++
	return nil
}

// Close releases the journal's file handle.
func (j *CoordJournal) Close() error { return j.log.Close() }

// ReadCoordState reduces the journal in dir without taking ownership — the
// warm standby's view of the primary's persisted state. torn reports a
// partial trailing record (the primary mid-append), which truncating-free
// reads simply stop before. A nil state with nil error means no journal
// (or an empty one) exists yet.
func ReadCoordState(dir string) (st *CoordState, torn bool, err error) {
	recs, torn, err := durable.ReadStateLog(dir, nil)
	if err != nil {
		return nil, torn, err
	}
	st, err = ReduceCoordState(recs)
	return st, torn, err
}

// ReduceCoordState folds journal records into the state they describe:
// the last full snapshot, then every later incremental event in order.
// Returns nil for an empty journal. It refuses, naming the record, a
// snapshot or step that would leave a state watermark translation cannot
// run on (see CoordState.validate).
func ReduceCoordState(recs []durable.StateRecord) (*CoordState, error) {
	var st *CoordState
	for i, rec := range recs {
		switch rec.Kind {
		case journalKindState:
			next := &CoordState{}
			if err := json.Unmarshal(rec.Payload, next); err != nil {
				return nil, fmt.Errorf("shard: journal record %d: %w", i, err)
			}
			if err := next.validate(); err != nil {
				return nil, fmt.Errorf("shard: journal record %d: %w", i, err)
			}
			st = next
		case journalKindStep:
			if st == nil {
				return nil, fmt.Errorf("shard: journal record %d: step before any state snapshot", i)
			}
			var ev stepEvent
			if err := json.Unmarshal(rec.Payload, &ev); err != nil {
				return nil, fmt.Errorf("shard: journal record %d: %w", i, err)
			}
			if len(ev.Targets) != len(st.Steps) {
				return nil, fmt.Errorf("shard: journal record %d: step has %d targets, topology has %d partitions",
					i, len(ev.Targets), len(st.Steps))
			}
			if ev.Global <= st.Global {
				return nil, fmt.Errorf("shard: journal record %d: step to global %d does not advance past %d", i, ev.Global, st.Global)
			}
			for p, steps := range st.Steps {
				if last := steps[len(steps)-1].Local; ev.Targets[p] < last {
					return nil, fmt.Errorf("shard: journal record %d: partition %d target %d is below its local %d", i, p, ev.Targets[p], last)
				}
			}
			applyStepEvent(st, ev)
		case journalKindTopology:
			if st == nil {
				return nil, fmt.Errorf("shard: journal record %d: topology event before any state snapshot", i)
			}
			var ev TopologyEvent
			if err := json.Unmarshal(rec.Payload, &ev); err != nil {
				return nil, fmt.Errorf("shard: journal record %d: %w", i, err)
			}
			if ev.Partition < 0 || ev.Partition >= len(st.Parts) {
				return nil, fmt.Errorf("shard: journal record %d: no partition %d", i, ev.Partition)
			}
			applyTopologyEvent(st, ev)
		default:
			// Unknown kinds from a newer writer are skipped, not fatal: the
			// reduction stays a best-effort floor of what it understands.
		}
	}
	return st, nil
}

// validate checks a journaled snapshot is one watermark translation can run
// on: one version log per partition, each starting with a base step, its
// global versions strictly increasing and its local versions never
// decreasing, every log ending at the state's global version.
func (st *CoordState) validate() error {
	if len(st.Steps) != len(st.Parts) {
		return fmt.Errorf("%d version logs for %d partitions", len(st.Steps), len(st.Parts))
	}
	for i, steps := range st.Steps {
		if len(steps) == 0 {
			return fmt.Errorf("partition %d has no base step", i)
		}
		for k := 1; k < len(steps); k++ {
			if steps[k].Global <= steps[k-1].Global || steps[k].Local < steps[k-1].Local {
				return fmt.Errorf("partition %d step %d (local %d, global %d) does not advance past (local %d, global %d)",
					i, k, steps[k].Local, steps[k].Global, steps[k-1].Local, steps[k-1].Global)
			}
		}
		if last := steps[len(steps)-1].Global; last != st.Global {
			return fmt.Errorf("partition %d ends at global %d, state is at %d", i, last, st.Global)
		}
	}
	return nil
}

// applyStepEvent advances the version log by one journaled batch.
func applyStepEvent(st *CoordState, ev stepEvent) {
	for i := range st.Steps {
		if i < len(ev.Targets) {
			st.Steps[i] = append(st.Steps[i], wmStep{Local: ev.Targets[i], Global: ev.Global})
		}
	}
	st.Global = ev.Global
}

// applyTopologyEvent applies one membership change.
func applyTopologyEvent(st *CoordState, ev TopologyEvent) {
	if ev.Partition < 0 || ev.Partition >= len(st.Parts) {
		return
	}
	set := st.Parts[ev.Partition]
	switch ev.Op {
	case "add":
		st.Parts[ev.Partition] = append(set, ReplicaState{
			Name: ev.Name, Addr: ev.Addr, Synced: ev.Synced,
		})
	case "remove":
		out := set[:0:0]
		for _, r := range set {
			if r.Name != ev.Name {
				out = append(out, r)
			}
		}
		st.Parts[ev.Partition] = out
	case "quarantine":
		for k := range set {
			if set[k].Name == ev.Name {
				set[k].Quarantined = true
				set[k].Synced = false
			}
		}
	}
}

// snapshotState builds the CoordState describing the coordinator right
// now. It takes co.mu and the per-replica locks (briefly, one at a time).
func (co *Coordinator) snapshotState() *CoordState {
	co.mu.Lock()
	st := &CoordState{
		Global:     co.global,
		Confidence: co.prepOpts.Confidence,
		Seed:       co.prepOpts.Seed,
		Steps:      make([][]wmStep, len(co.steps)),
		Parts:      make([][]ReplicaState, len(co.sets)),
	}
	sets := make([][]*replica, len(co.sets))
	for i := range co.steps {
		st.Steps[i] = append([]wmStep(nil), co.steps[i]...)
	}
	for i := range co.sets {
		sets[i] = append([]*replica(nil), co.sets[i]...)
	}
	co.mu.Unlock()
	for i, set := range sets {
		for _, r := range set {
			r.mu.Lock()
			st.Parts[i] = append(st.Parts[i], ReplicaState{
				Name: r.name, Addr: r.addr, Synced: r.synced, Quarantined: r.quarantined,
			})
			r.mu.Unlock()
		}
	}
	return st
}

// logState journals a full snapshot; a nil journal is a no-op.
func (co *Coordinator) logState() error {
	j := co.opts.Journal
	if j == nil {
		return nil
	}
	return j.LogState(co.snapshotState())
}

// logStep journals one version-log advance; a nil journal is a no-op.
func (co *Coordinator) logStep(targets []int64, global int64) error {
	j := co.opts.Journal
	if j == nil {
		return nil
	}
	return j.LogStep(targets, global)
}

// logTopology journals one membership change; a nil journal is a no-op.
func (co *Coordinator) logTopology(ev TopologyEvent) error {
	j := co.opts.Journal
	if j == nil {
		return nil
	}
	return j.LogTopology(ev)
}

// Restore rebuilds a coordinator's control plane from a journaled
// CoordState instead of deriving it with Prepare: the version log, global
// version and prepare options come from the journal verbatim, so watermark
// translation after a takeover is exactly what it was before. The
// coordinator must have been constructed with one replica per journaled
// ReplicaState (same order, same names — NewReplicatedSpecs from the same
// state); backends are NOT prepared, since the data plane already holds
// its partitions and a takeover must not reset it.
//
// Sync flags are re-derived by watermark proof, not trusted: a replica is
// in sync iff its confirmed watermark reaches the journaled target (the
// same rule the health loop promotes by). Quarantine flags ARE trusted —
// quarantine marks content divergence, which a watermark cannot disprove.
func (co *Coordinator) Restore(db *dataset.Database, st *CoordState) error {
	if st == nil {
		return fmt.Errorf("shard: restore needs a journaled state")
	}
	opts := engine.Options{Confidence: st.Confidence, Seed: st.Seed}.Normalize()
	z, err := stats.ZScore(opts.Confidence)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	co.mu.Lock()
	nParts := len(co.sets)
	sets := make([][]*replica, nParts)
	for i := range co.sets {
		sets[i] = append([]*replica(nil), co.sets[i]...)
	}
	co.mu.Unlock()
	if len(st.Steps) != nParts || len(st.Parts) != nParts {
		return fmt.Errorf("shard: restore of %d-partition state onto %d partitions", len(st.Parts), nParts)
	}
	for i, set := range sets {
		if len(st.Parts[i]) != len(set) {
			return fmt.Errorf("shard: restore partition %d: %d journaled replicas, %d constructed",
				i, len(st.Parts[i]), len(set))
		}
		if len(st.Steps[i]) == 0 {
			return fmt.Errorf("shard: restore partition %d: no base step", i)
		}
	}

	parts, err := Partition(db, nParts)
	if err != nil {
		return err
	}
	for i, set := range sets {
		base := st.Steps[i][0].Local
		if got := int64(parts[i].Fact.NumRows()); got != base {
			return fmt.Errorf("shard: restore partition %d: derived base %d rows, journal says %d (different dataset?)",
				i, got, base)
		}
		target := st.Steps[i][len(st.Steps[i])-1].Local
		for j, r := range set {
			ps := st.Parts[i][j]
			r.mu.Lock()
			r.matDB = parts[i]
			r.addr = ps.Addr
			r.quarantined = ps.Quarantined
			r.synced = !ps.Quarantined
			r.mu.Unlock()
			if r.watermark(base) < target {
				r.markUnsynced()
			}
		}
	}

	co.mu.Lock()
	co.partDBs = parts
	co.global = st.Global
	co.steps = make([][]wmStep, nParts)
	for i := range co.steps {
		co.steps[i] = append([]wmStep(nil), st.Steps[i]...)
	}
	co.capture = make([][]*ingest.Batch, nParts)
	co.z = z
	co.prepOpts = opts
	co.prepared = true
	co.mu.Unlock()

	// Re-snapshot under the new owner: primes the journal's reduction and
	// compacts away the previous incarnation's incremental tail.
	return co.logState()
}
