// Package core is the top-level façade of IDEBench-Go: benchmark settings
// with the paper's default configurations, the engine registry, dataset
// construction, one-call prepare/run helpers tying datagen, workflows,
// engines, driver and reporting together, and the serving tier's durable
// boot (Boot).
//
// The defaults are scaled to laptop size: the paper runs 100M–1B rows with
// 0.5–10s time requirements on a 20-core server; we default to 250k–1M rows
// with 2–40ms TRs on one core. Both axes shrink by the same ~250×,
// preserving the relative behaviour of the engines (who violates TRs, who
// converges).
package core

import (
	"fmt"
	"time"

	"idebench/internal/datagen"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/engine/idelayer"
	"idebench/internal/engine/onlinedb"
	"idebench/internal/engine/progressive"
	"idebench/internal/engine/sampledb"
	"idebench/internal/engine/sqldb"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/workflow"
)

// Default dataset sizes (paper: S=100M, M=500M tuples).
const (
	SizeS = 250_000
	SizeM = 500_000
)

// SizeLabel renders a row count like the paper's "500m" labels.
func SizeLabel(rows int) string {
	switch {
	case rows >= 1_000_000 && rows%1_000_000 == 0:
		return fmt.Sprintf("%dm", rows/1_000_000)
	case rows >= 1_000 && rows%1_000 == 0:
		return fmt.Sprintf("%dk", rows/1_000)
	default:
		return fmt.Sprintf("%d", rows)
	}
}

// DefaultTimeRequirements mirrors the paper's sweep {0.5, 1, 3, 5, 10}s at
// ~1/250 scale.
func DefaultTimeRequirements() []time.Duration {
	return []time.Duration{
		2 * time.Millisecond,
		4 * time.Millisecond,
		12 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
	}
}

// DefaultThinkTime is the stress-test think time (paper: 1s).
const DefaultThinkTime = 4 * time.Millisecond

// DefaultThinkTimes mirrors the paper's 1–10s think-time sweep (Exp. 3).
func DefaultThinkTimes() []time.Duration {
	out := make([]time.Duration, 10)
	for i := range out {
		out[i] = time.Duration(i+1) * 4 * time.Millisecond
	}
	return out
}

// DefaultConfidence is the confidence level for margins of error.
const DefaultConfidence = 0.95

// Settings bundles one run's configuration (paper Sec. 4.6).
type Settings struct {
	TimeRequirement time.Duration
	ThinkTime       time.Duration
	DataSize        int
	UseJoins        bool
	Confidence      float64
	Seed            int64
}

// DefaultSettings returns the default configuration at size M.
func DefaultSettings() Settings {
	return Settings{
		TimeRequirement: 12 * time.Millisecond,
		ThinkTime:       DefaultThinkTime,
		DataSize:        SizeM,
		Confidence:      DefaultConfidence,
		Seed:            1,
	}
}

// EngineNames lists the four fully-driveable engines in report order
// ("systemy" additionally wraps exactdb for Exp. 5).
var EngineNames = []string{"exactdb", "onlinedb", "progressive", "sampledb"}

// NewEngine constructs an engine by registry name.
//
//	exactdb          — blocking analytical column store (MonetDB analogue)
//	onlinedb         — online aggregation w/ blocking fallback (XDB analogue)
//	progressive      — progressive online engine (IDEA analogue)
//	progressive-spec — progressive with think-time speculation (Exp. 3)
//	sampledb         — offline stratified sampling AQP (System X analogue)
//	systemy          — IDE layer over exactdb (System Y analogue)
//	sqldb            — generic database/sql adapter on the sqlmem backend
func NewEngine(name string) (engine.Engine, error) {
	switch name {
	case "exactdb":
		return exactdb.New(), nil
	case "onlinedb":
		return onlinedb.New(), nil
	case "progressive":
		return progressive.New(progressive.Config{}), nil
	case "progressive-spec":
		return progressive.New(progressive.Config{Speculate: true}), nil
	case "sampledb":
		return sampledb.New(), nil
	case "systemy":
		return idelayer.New(exactdb.New()), nil
	case "sqldb":
		return sqldb.NewSQLMem(), nil
	default:
		return nil, fmt.Errorf("core: unknown engine %q (known: %v + progressive-spec, systemy)",
			name, EngineNames)
	}
}

// SupportsJoins reports whether the named engine accepts normalized star
// schemas (paper Sec. 5.3 excludes IDEA and System X).
func SupportsJoins(name string) bool {
	switch name {
	case "exactdb", "onlinedb", "systemy", "sqldb":
		return true
	}
	return false
}

// BuildData generates the default flights dataset at the requested size:
// a seed via the synthetic generator, scaled with the copula scaler, then
// optionally normalized into the default star schema.
func BuildData(rows int, useJoins bool, seed int64) (*dataset.Database, error) {
	seedRows := rows / 10
	if seedRows < 2_000 {
		seedRows = 2_000
	}
	if seedRows > 50_000 {
		seedRows = 50_000
	}
	seedTbl, err := datagen.GenerateSeed(seedRows, seed)
	if err != nil {
		return nil, fmt.Errorf("core: seed: %w", err)
	}
	tbl, err := datagen.ScaleTable(seedTbl, rows, seed+1)
	if err != nil {
		return nil, fmt.Errorf("core: scale: %w", err)
	}
	if !useJoins {
		return &dataset.Database{Fact: tbl}, nil
	}
	db, err := datagen.Normalize(tbl, datagen.DefaultDimensions())
	if err != nil {
		return nil, fmt.Errorf("core: normalize: %w", err)
	}
	return db, nil
}

// Prepared couples a prepared engine with its database, ground-truth cache
// and measured data preparation time (paper Sec. 4.8 reporting rule).
type Prepared struct {
	Name     string
	Engine   engine.Engine
	DB       *dataset.Database
	GT       *groundtruth.Cache
	PrepTime time.Duration
}

// Prepare constructs and prepares the named engine on db, timing the data
// preparation.
func Prepare(name string, db *dataset.Database, s Settings) (*Prepared, error) {
	eng, err := NewEngine(name)
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Confidence: s.Confidence, Seed: s.Seed}
	start := time.Now()
	if err := eng.Prepare(db, opts); err != nil {
		return nil, fmt.Errorf("core: prepare %s: %w", name, err)
	}
	return &Prepared{
		Name:     name,
		Engine:   eng,
		DB:       db,
		GT:       groundtruth.New(db),
		PrepTime: time.Since(start),
	}, nil
}

// Run replays the workflows as one analyst under the settings and returns
// detailed records. The ground-truth cache persists across calls on the
// same Prepared, so TR sweeps pay for each unique query once.
func (p *Prepared) Run(flows []*workflow.Workflow, s Settings) ([]driver.Record, error) {
	return p.replay(flows, s, 1, 0, nil)
}

// RunUsers replays the workflows as `users` concurrent simulated users over
// the prepared engine, one engine session per user (workflows are dealt
// round-robin, think times jittered); users < 1 replays one. Records carry
// the user annotations the user-scaling report groups by. A non-nil
// harness is the live-ingestion timeline: ingest interactions apply
// batches through it and every result is scored against the ground truth
// of the data version its watermark names.
func (p *Prepared) RunUsers(flows []*workflow.Workflow, s Settings, users int, h *ingest.Harness) ([]driver.Record, error) {
	return p.replay(flows, s, users, driver.DefaultThinkJitter, h)
}

func (p *Prepared) replay(flows []*workflow.Workflow, s Settings, users int, jitter float64, h *ingest.Harness) ([]driver.Record, error) {
	cfg := driver.Config{
		TimeRequirement: s.TimeRequirement,
		ThinkTime:       s.ThinkTime,
		DataSizeLabel:   SizeLabel(s.DataSize),
		Users:           users,
		ThinkJitter:     jitter,
		Seed:            s.Seed,
	}
	var truth driver.Truth = p.GT
	if h != nil {
		cfg.IngestSink, truth = h, h
	}
	res, err := driver.Replay(p.Engine, truth, cfg, flows)
	if err != nil {
		return nil, err
	}
	return res.Records, nil
}

// GenerateWorkflows builds the default workload against the database's fact
// table: count workflows per type (4 pure types + mixed).
func GenerateWorkflows(db *dataset.Database, count, interactions int, seed int64) ([]*workflow.Workflow, error) {
	// The generator needs the de-normalized view of attributes; on a star
	// schema it can only see fact columns, so generate against a synthetic
	// flat view when normalized.
	gen, err := workflow.NewGenerator(db.Fact)
	if err != nil {
		return nil, err
	}
	return gen.GenerateSet(count, interactions, seed)
}

// MixedOnly filters a workflow set down to the mixed workflows (the paper's
// main experiment reports the mixed workload).
func MixedOnly(flows []*workflow.Workflow) []*workflow.Workflow {
	var out []*workflow.Workflow
	for _, f := range flows {
		if f.Type == workflow.Mixed {
			out = append(out, f)
		}
	}
	return out
}
