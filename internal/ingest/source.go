package ingest

import (
	"fmt"
	"sync"

	"idebench/internal/datagen"
)

// Source produces deterministic ingest batches distributed like the
// benchmark's synthetic flights data: a copula scaler is fitted once on a
// generated seed table, and each batch draws fresh rows from it under a
// per-batch seed. The same (seed, batch index, size) always yields the same
// rows, which is what lets a network replay apply identical batches on the
// client (ground-truth lineage) and the server (engine lineage), and what
// the replay-determinism tests pin.
type Source struct {
	mu      sync.Mutex
	scaler  *datagen.Scaler
	seed    int64
	batches int64
}

// NewSource fits a source for the standard flights schema. seedRows sizes
// the generator's seed table (a few thousand is plenty — it only shapes the
// marginals the copula reproduces).
func NewSource(seedRows int, seed int64) (*Source, error) {
	if seedRows < 2000 {
		seedRows = 2000
	}
	seedTbl, err := datagen.GenerateSeed(seedRows, seed)
	if err != nil {
		return nil, fmt.Errorf("ingest: source seed: %w", err)
	}
	sc, err := datagen.NewScaler(seedTbl, seed+1)
	if err != nil {
		return nil, fmt.Errorf("ingest: source scaler: %w", err)
	}
	return &Source{scaler: sc, seed: seed}, nil
}

// Next generates the next batch of n rows. Batches are numbered from 1 in
// generation order; the number travels as the batch's Seq.
func (s *Source) Next(n int) (*Batch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ingest: batch size %d", n)
	}
	s.mu.Lock()
	s.batches++
	seq := s.batches
	s.mu.Unlock()
	tbl, err := s.scaler.Generate(n, s.seed+1_000_000+seq*7919)
	if err != nil {
		return nil, fmt.Errorf("ingest: generate batch %d: %w", seq, err)
	}
	b := FromTable(tbl, 0, tbl.NumRows())
	b.Seq = seq
	return b, nil
}

var _ BatchSource = (*Source)(nil)

// BatchSource abstracts where ingest events' rows come from; tests inject
// fixed streams, benchmarks use the datagen-backed Source.
type BatchSource interface {
	Next(n int) (*Batch, error)
}

// FixedSource replays a pre-built list of batches in order (tests).
type FixedSource struct {
	mu      sync.Mutex
	batches []*Batch
	next    int
}

// NewFixedSource returns a source that hands out the given batches. Next's
// size argument is ignored; running past the end is an error.
func NewFixedSource(batches ...*Batch) *FixedSource {
	return &FixedSource{batches: batches}
}

// Next implements BatchSource.
func (s *FixedSource) Next(int) (*Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.batches) {
		return nil, fmt.Errorf("ingest: fixed source exhausted after %d batches", len(s.batches))
	}
	b := s.batches[s.next]
	s.next++
	return b, nil
}
