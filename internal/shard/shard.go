// Package shard implements the scatter-gather serving tier: a hash
// partitioner that splits the fact table across N shards, a router that
// splits live ingest batches the same way, and a Coordinator that
// implements engine.Engine by fanning queries out to the shards and
// merging their raw accumulator fragments (engine.Partial) back into one
// progressive result.
//
// # Topology
//
// Each shard is the ordinary prepared engine — typically the shared-scan
// progressive engine behind a serve process — holding one partition of the
// fact table plus the full (small) dimension tables. The coordinator sits
// in front, speaks engine.Engine to the driver/serving layer, and owns two
// responsibilities: deterministic merging and watermark alignment.
//
// # Deterministic merging
//
// Shards expose raw accumulator state, not rendered estimates, through the
// engine.PartialSnapshotter capability. The coordinator buffers one Partial
// per shard (whatever order they arrive in), then folds them in fixed
// shard-ID order and renders once with the same float operations a local
// parallel scan uses (engine.renderScaled). Fixed fold order is what keeps
// float accumulation bitwise-deterministic across runs: addition is not
// associative in IEEE-754, so "merge in arrival order" would make results
// depend on network timing.
//
// # Routing and the min-watermark rule
//
// Ingest batches are split by the same row hash that built the partitions,
// so a row's home shard is a pure function of its values. Shard watermarks
// live on per-shard row axes; the coordinator records, for every globally
// applied batch, the (local watermark → global version) step of each shard
// and translates by flooring. A merged snapshot's Result.Watermark is the
// MINIMUM over its constituent shards' translated watermarks: the merged
// answer is only as fresh as its stalest fragment.
//
// # Elasticity
//
// Each partition may be served by a replica set rather than a single
// engine (NewReplicated). Replicas of a partition hold identical data, so
// any healthy, synced replica can answer for it; the coordinator
// health-checks replicas (StartHealthLoop), fails a mid-stream query over
// to a sibling replica without surfacing an error, and keeps ingesting to
// the survivors while a dead replica is down. A replica that rejoins is
// only promoted back to query duty once its watermark proves it has
// re-applied everything it missed.
//
// When every replica of a partition is down, queries do not fail and do
// not silently pretend to be complete: the merged result carries a
// query.Coverage block naming how many partitions answered and what
// fraction of the population they hold, and Options.MinCoverage lets an
// operator refuse answers below a floor instead. AddReplicaAddr/RemoveReplica
// and Rebalance grow, shrink and re-split the tier at runtime; handoff
// reuses the durable-checkpoint transfer format plus a capture-window tail
// replay so the moved partition attaches at a version barrier with no row
// loss. StartAntiEntropyLoop cross-checks replica sets bitwise in the
// background and reports divergence before users can observe it.
package shard

import (
	"fmt"
	"math"
	"slices"

	"idebench/internal/dataset"
	"idebench/internal/ingest"
)

// FNV-1a 64-bit constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Per-cell kind tags keep string and numeric bytes from colliding and
// delimit variable-length string cells. They must match between table-row
// hashing (Partition) and ingest-row hashing (RouteBatch) or a row would
// change shards between bulk load and live ingest.
const (
	tagStr = 0x01
	tagNum = 0x02
)

func hashByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

func hashString(h uint64, s string) uint64 {
	h = hashByte(h, tagStr)
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	// Terminator so "ab"+"c" and "a"+"bc" in adjacent cells differ.
	return hashByte(h, 0x00)
}

func hashNum(h uint64, f float64) uint64 {
	h = hashByte(h, tagNum)
	bits := math.Float64bits(f)
	for k := 0; k < 8; k++ {
		h = hashByte(h, byte(bits>>(8*k)))
	}
	return h
}

// rowHashTable hashes one physical row of a materialized table. Nominal
// cells hash their dictionary STRING, never the code: codes are an artifact
// of interning order and would differ between a shard's private dictionary
// and the coordinator's.
func rowHashTable(t *dataset.Table, r int) uint64 {
	h := uint64(fnvOffset64)
	for _, col := range t.Columns {
		if col.Field.Kind == dataset.Nominal {
			h = hashString(h, col.Dict.Value(col.Codes[r]))
		} else {
			h = hashNum(h, col.Nums[r])
		}
	}
	return h
}

// rowHashIngest hashes row r of an ingest batch. Nominal cells hash their
// dictionary string and quantitative cells their number, so the byte stream
// fed to FNV is identical to rowHashTable's for the same row.
func rowHashIngest(b *ingest.Batch, r int) uint64 {
	h := uint64(fnvOffset64)
	for j := range b.Columns {
		c := &b.Columns[j]
		if c.Kind == dataset.Nominal {
			h = hashString(h, c.Dict[c.Codes[r]])
		} else {
			h = hashNum(h, c.Nums[r])
		}
	}
	return h
}

// HomeShard returns the shard index for row r of an ingest batch under an
// n-way partitioning.
func HomeShard(b *ingest.Batch, r, n int) int {
	return int(rowHashIngest(b, r) % uint64(n))
}

// Partition splits db's fact table into n hash partitions. Each returned
// database holds one partition as its fact table and shares db's dimension
// tables (dimensions are small and every shard needs all of them to resolve
// foreign keys). Nominal partition columns share the parent dictionaries,
// so codes remain comparable across shards prepared from the same build —
// but the merge path never relies on that: routing and merging go through
// values, not codes.
func Partition(db *dataset.Database, n int) ([]*dataset.Database, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: partition count %d, want >= 1", n)
	}
	fact := db.Fact
	rows := make([][]uint32, n)
	for r := 0; r < fact.NumRows(); r++ {
		i := int(rowHashTable(fact, r) % uint64(n))
		rows[i] = append(rows[i], uint32(r))
	}
	out := make([]*dataset.Database, n)
	for i := range out {
		t, err := dataset.SelectRows(fact, rows[i])
		if err != nil {
			return nil, fmt.Errorf("shard: partition %d/%d: %w", i, n, err)
		}
		out[i] = &dataset.Database{Fact: t, Dimensions: db.Dimensions}
	}
	return out, nil
}

// RouteBatch validates one ingest batch and splits it into n per-shard
// sub-batches by row hash. Each sub-batch holds its rows in the parent's
// row order, keeps the parent's table name and sequence number, and carries
// its own canonical dictionaries: only the values its rows use, in their
// first-use order. A shard whose slice of the batch is empty gets a zero-row
// sub-batch (never nil) so callers can still advance that shard's watermark
// bookkeeping.
func RouteBatch(b *ingest.Batch, n int) ([]*ingest.Batch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: route across %d shards, want >= 1", n)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	rows := b.NumRows()
	home := make([]int, rows)
	count := make([]int, n)
	for r := range home {
		home[r] = HomeShard(b, r, n)
		count[home[r]]++
	}
	// local maps a parent dictionary code to the sub-batch's, -1 when unused.
	var local []int32
	out := make([]*ingest.Batch, n)
	for i := range out {
		sub := &ingest.Batch{Table: b.Table, Seq: b.Seq, Columns: make([]ingest.Column, len(b.Columns))}
		for j := range b.Columns {
			c, sc := &b.Columns[j], &sub.Columns[j]
			sc.Kind = c.Kind
			if c.Kind != dataset.Nominal {
				sc.Nums = make([]float64, 0, count[i])
				for r, h := range home {
					if h == i {
						sc.Nums = append(sc.Nums, c.Nums[r])
					}
				}
				continue
			}
			local = slices.Grow(local[:0], len(c.Dict))[:len(c.Dict)]
			for k := range local {
				local[k] = -1
			}
			sc.Codes = make([]uint32, 0, count[i])
			for r, h := range home {
				if h != i {
					continue
				}
				code := c.Codes[r]
				if local[code] < 0 {
					local[code] = int32(len(sc.Dict))
					sc.Dict = append(sc.Dict, c.Dict[code])
				}
				sc.Codes = append(sc.Codes, uint32(local[code]))
			}
		}
		out[i] = sub
	}
	return out, nil
}
