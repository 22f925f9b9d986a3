package shard

import (
	"fmt"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
)

// AddReplicaAddr attaches be as a new replica of partition part; addr, the
// replica's dialable address, is journaled with the membership change so a
// recovering coordinator can re-attach the replica. The backend prepares
// (or, for a *server.Remote, sanity-checks) the partition's base database —
// the same deterministic derivation every replica starts from — so a
// newcomer that missed routed ingest batches joins unsynced. Nothing
// re-sends it what it missed: an idebench shard process has no -data-dir,
// keeps no WAL and re-applies nothing, so a remote replica that missed a
// batch stays unsynced for good. Rebalance's in-process checkpoint handoff
// is the one path that brings a replica in sync.
func (co *Coordinator) AddReplicaAddr(part int, be engine.Engine, addr string) error {
	co.mu.Lock()
	if !co.prepared {
		co.mu.Unlock()
		return engine.ErrNotPrepared
	}
	if part < 0 || part >= len(co.sets) {
		co.mu.Unlock()
		return fmt.Errorf("shard: no partition %d", part)
	}
	partDB := co.partDBs[part]
	opts := co.prepOpts
	target := co.steps[part][len(co.steps[part])-1].Local
	ordinal := len(co.sets[part])
	co.mu.Unlock()

	if err := be.Prepare(partDB, opts); err != nil {
		return fmt.Errorf("shard: add replica to partition %d: %w", part, err)
	}
	r := newReplica(be, replicaName(be, part, ordinal), partDB)
	r.addr = addr
	if r.watermark(int64(partDB.Fact.NumRows())) < target {
		// Missed batches while it wasn't a member; serves stale until its
		// watermark catches up.
		r.markUnsynced()
	}
	co.mu.Lock()
	co.sets[part] = append(co.sets[part], r)
	co.mu.Unlock()
	_, synced := r.state()
	return co.logTopology(TopologyEvent{
		Op: "add", Partition: part, Name: r.name, Addr: addr, Synced: synced,
	})
}

// RemoveReplica detaches the named replica from partition part. The last
// replica of a partition cannot be removed — scale the partition count
// instead (a different operation entirely).
func (co *Coordinator) RemoveReplica(part int, name string) error {
	co.mu.Lock()
	if part < 0 || part >= len(co.sets) {
		co.mu.Unlock()
		return fmt.Errorf("shard: no partition %d", part)
	}
	set := co.sets[part]
	for j, r := range set {
		if r.name != name {
			continue
		}
		if len(set) == 1 {
			co.mu.Unlock()
			return fmt.Errorf("shard: refusing to remove the last replica of partition %d", part)
		}
		co.sets[part] = append(append([]*replica(nil), set[:j]...), set[j+1:]...)
		co.mu.Unlock()
		co.probe.drop(r)
		return co.logTopology(TopologyEvent{Op: "remove", Partition: part, Name: name})
	}
	co.mu.Unlock()
	return fmt.Errorf("shard: partition %d has no replica %q", part, name)
}

// Rebalance performs a hash-range handoff: it streams partition part's
// current state to be using the durable-checkpoint transfer format and
// attaches it as a fully in-sync replica. Concretely: snapshot a live
// replica's copy-on-write view (engine.ViewSnapshotter — the same call the
// PR 7 checkpointer uses), encode and decode every table through the
// checkpoint column-segment codec, adopt it on the new backend via
// engine.ReorderedPreparer (warm, skipping the permutation draw) or plain
// Prepare, then replay the ingest tail that routed during the transfer and
// flip routing at the version barrier — the attach happens under the
// routing lock at an instant when no captured batch is outstanding, so the
// newcomer has absorbed exactly the batches every other in-sync replica
// has.
//
// Queries and ingest keep flowing during the whole handoff; only the final
// flip takes the lock. The source must be an in-process backend with view
// snapshots. Remote topology changes go through AddReplicaAddr, which leaves a
// remote replica that missed batches unsynced: a shard process keeps no
// durable state to re-sync from.
func (co *Coordinator) Rebalance(part int, be engine.Engine) error {
	co.mu.Lock()
	if !co.prepared {
		co.mu.Unlock()
		return engine.ErrNotPrepared
	}
	if part < 0 || part >= len(co.sets) {
		co.mu.Unlock()
		return fmt.Errorf("shard: no partition %d", part)
	}
	if co.capture[part] != nil {
		co.mu.Unlock()
		return fmt.Errorf("shard: partition %d already has a rebalance in flight", part)
	}
	var src *replica
	for _, r := range co.sets[part] {
		healthy, synced := r.state()
		if _, ok := r.be.(engine.ViewSnapshotter); ok && healthy && synced && !r.isQuarantined() {
			src = r
			break
		}
	}
	if src == nil {
		co.mu.Unlock()
		return fmt.Errorf("shard: partition %d has no live snapshot-capable replica to hand off from", part)
	}
	// Open the capture window before reading the view: every batch routed
	// from here on is either already in the view or lands in the tail.
	co.capture[part] = []*ingest.Batch{}
	opts := co.prepOpts
	ordinal := len(co.sets[part])
	co.mu.Unlock()

	abort := func(err error) error {
		co.mu.Lock()
		co.capture[part] = nil
		co.mu.Unlock()
		return err
	}

	view, perm := src.be.(engine.ViewSnapshotter).SnapshotView()
	moved, err := transferDatabase(view)
	if err != nil {
		return abort(fmt.Errorf("shard: handoff encode partition %d: %w", part, err))
	}
	if rp, ok := be.(engine.ReorderedPreparer); ok && perm != nil {
		err = rp.PrepareReordered(moved, perm, opts)
	} else {
		err = be.Prepare(moved, opts)
	}
	if err != nil {
		return abort(fmt.Errorf("shard: handoff prepare partition %d: %w", part, err))
	}
	app, ok := be.(engine.Appender)
	if !ok {
		return abort(fmt.Errorf("shard: handoff target for partition %d cannot absorb the ingest tail", part))
	}

	// Drain the captured tail, then flip at the version barrier: the attach
	// happens under the lock only when no batch slipped in since the last
	// drain, so membership and absorbed-state change at the same version.
	for {
		co.mu.Lock()
		tail := co.capture[part]
		if len(tail) == 0 {
			r := newReplica(be, replicaName(be, part, ordinal), moved)
			co.sets[part] = append(co.sets[part], r)
			co.capture[part] = nil
			co.mu.Unlock()
			return co.logTopology(TopologyEvent{
				Op: "add", Partition: part, Name: r.name, Synced: true,
			})
		}
		co.capture[part] = []*ingest.Batch{}
		co.mu.Unlock()
		for _, sub := range tail {
			tbl, err := ingest.Materialize(moved, sub)
			if err != nil {
				return abort(fmt.Errorf("shard: handoff tail replay partition %d: %w", part, err))
			}
			if err := app.Append(tbl); err != nil {
				return abort(fmt.Errorf("shard: handoff tail replay partition %d: %w", part, err))
			}
		}
	}
}

// transferDatabase round-trips a database view through the durable
// checkpoint table codec — the handoff's wire format. The encode/decode
// pair is what would cross the network (or a checkpoint file) between
// owners; decoding rebuilds dictionaries in code order, so the copy is
// logically identical and safely owns its own storage.
func transferDatabase(view *dataset.Database) (*dataset.Database, error) {
	fact, err := dataset.DecodeTable(dataset.EncodeTable(view.Fact))
	if err != nil {
		return nil, fmt.Errorf("fact: %w", err)
	}
	out := &dataset.Database{Fact: fact}
	for _, d := range view.Dimensions {
		t, err := dataset.DecodeTable(dataset.EncodeTable(d.Table))
		if err != nil {
			return nil, fmt.Errorf("dimension %s: %w", d.FKColumn, err)
		}
		out.Dimensions = append(out.Dimensions, &dataset.Dimension{Table: t, FKColumn: d.FKColumn})
	}
	return out, nil
}
