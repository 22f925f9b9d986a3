package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/workflow"
)

// step is one workflow interaction already folded through workflow.Graph:
// what the analyst's session must be told and the queries it must start
// together. Folding happens before the window, so the timed loop only calls
// the system under test.
type step struct {
	newFlow bool // first interaction of a workflow: WorkflowStart before it
	endFlow bool // last interaction of a workflow: WorkflowEnd after it
	link    *[2]string
	discard string
	queries []*query.Query
}

// script is one analyst's (or one connection's) interaction sequence. The
// loops replay it cyclically; every workflow starts its session caches cold
// (Session.WorkflowStart), so a later cycle does the work of the first.
type script struct {
	steps []step
	// warm is one more workflow, replayed before the window opens and never
	// inside it.
	warm []step
}

// arrival is one open-loop interaction: when it is due after the ladder
// starts, which connection issues it and which rung of the rate ladder it
// belongs to.
type arrival struct {
	at   time.Duration
	conn int
	rung int
}

// inputs is everything the program is handed during a run, generated from
// the seed alone.
type inputs struct {
	scripts []script
	// closed is how long the closed loop runs: the whole window, except on
	// explore-served, where the rate ladder takes the rest.
	closed   time.Duration
	arrivals []arrival       // explore-served
	rungs    []rung          // explore-served
	batches  []*ingest.Batch // ingest-mixed
	digest   string
}

type rung struct {
	rate       float64
	start, end time.Duration // offsets from the start of the ladder
}

// buildScripts generates n scripts of p.flowsPerScript+1 seeded mixed
// workflows each against tbl and hashes them into h.
func buildScripts(tbl *dataset.Table, p params, seed int64, n int, h *digester) ([]script, error) {
	gen, err := workflow.NewGenerator(tbl)
	if err != nil {
		return nil, err
	}
	scripts := make([]script, n)
	for a := range scripts {
		for k := 0; k <= p.flowsPerScript; k++ {
			w, err := gen.Generate(workflow.GenConfig{
				Type:         workflow.Mixed,
				Interactions: interactions,
				Seed:         seed*1_000_003 + int64(a)*10_007 + int64(k),
				Name:         fmt.Sprintf("mixed-a%d-%03d", a, k),
			})
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := workflow.WriteJSON(&buf, []*workflow.Workflow{w}); err != nil {
				return nil, err
			}
			h.write(buf.Bytes())
			steps, err := fold(w)
			if err != nil {
				return nil, err
			}
			if k == p.flowsPerScript {
				scripts[a].warm = steps
			} else {
				scripts[a].steps = append(scripts[a].steps, steps...)
			}
		}
	}
	return scripts, nil
}

// fold replays w through a visualization graph and returns its steps.
func fold(w *workflow.Workflow) ([]step, error) {
	g := workflow.NewGraph()
	steps := make([]step, 0, len(w.Interactions))
	for i, in := range w.Interactions {
		eff, err := g.Apply(in)
		if err != nil {
			return nil, fmt.Errorf("workflow %s interaction %d: %w", w.Name, i, err)
		}
		steps = append(steps, step{link: eff.NewLink, discard: eff.Discarded, queries: eff.Queries})
	}
	if len(steps) > 0 {
		steps[0].newFlow = true
		steps[len(steps)-1].endFlow = true
	}
	return steps, nil
}

// buildLadder lays the rate ladder over span, rung by equal rung in
// ascending order, and draws Poisson arrivals for it.
func buildLadder(seed int64, span time.Duration, conns int, h *digester) ([]rung, []arrival) {
	each := span / time.Duration(len(ladder))
	rungs := make([]rung, len(ladder))
	rng := rand.New(rand.NewSource(seed ^ 0x5eed1adde7))
	var arrivals []arrival
	for i, rate := range ladder {
		rungs[i] = rung{rate: rate, start: time.Duration(i) * each, end: time.Duration(i+1) * each}
		for t := rungs[i].start; ; {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= rungs[i].end {
				break
			}
			arrivals = append(arrivals, arrival{at: t, conn: len(arrivals) % conns, rung: i})
			h.writeInt(int64(t))
		}
	}
	return rungs, arrivals
}

// buildBatches draws the ingest stream: n batches of p.batchRows rows from
// the seeded flights source.
func buildBatches(p params, seed int64, n int, h *digester) ([]*ingest.Batch, error) {
	src, err := ingest.NewSource(2000, seed+23)
	if err != nil {
		return nil, err
	}
	out := make([]*ingest.Batch, n)
	for i := range out {
		b, err := src.Next(p.batchRows)
		if err != nil {
			return nil, err
		}
		data, err := b.Encode()
		if err != nil {
			return nil, err
		}
		h.write(data)
		out[i] = b
	}
	return out, nil
}

// digester hashes the generated op list into the workload_digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) write(p []byte) { d.h.Write(p) }

func (d *digester) writeInt(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digester) hex() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
