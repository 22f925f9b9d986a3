package workflow

import (
	"fmt"
	"math"
	"math/rand"

	"idebench/internal/dataset"
	"idebench/internal/query"
)

// maxVizs caps simultaneously live visualizations.
const maxVizs = 8

// GenConfig parameterizes the workload generator.
type GenConfig struct {
	// Type selects the interaction pattern; Mixed blends all four.
	Type Type
	// Interactions is the workflow length (default 18).
	Interactions int
	// Seed drives all randomness; identical configs generate identical
	// workflows.
	Seed int64
	// Name overrides the generated workflow name.
	Name string
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Interactions <= 0 {
		c.Interactions = 18
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("%s-%d", c.Type, c.Seed)
	}
	return c
}

// fieldMeta summarizes one attribute for random spec generation.
type fieldMeta struct {
	field dataset.Field
	// lo/hi bound quantitative values; dict holds nominal values.
	lo, hi float64
	values []string
}

// Generator produces random workflows whose specs are valid against a
// concrete table: quantitative bin widths derive from observed value ranges
// (the paper's "pre-defined number of bins" strategy) and filter values are
// drawn from the table's actual domain.
type Generator struct {
	table  string
	fields []fieldMeta
	nom    []int // indices of nominal fields
	quant  []int // indices of quantitative fields
}

// NewGenerator inspects the table and prepares a generator.
func NewGenerator(tbl *dataset.Table) (*Generator, error) {
	if tbl.NumRows() == 0 {
		return nil, dataset.ErrNoRows
	}
	g := &Generator{table: tbl.Name}
	for i, f := range tbl.Schema.Fields {
		m := fieldMeta{field: f}
		col := tbl.Columns[i]
		if f.Kind == dataset.Quantitative {
			m.lo, m.hi = math.Inf(1), math.Inf(-1)
			for _, v := range col.Nums {
				if v < m.lo {
					m.lo = v
				}
				if v > m.hi {
					m.hi = v
				}
			}
			if m.hi <= m.lo {
				m.hi = m.lo + 1
			}
			g.quant = append(g.quant, len(g.fields))
		} else {
			m.values = append(m.values, col.Dict.Values()...)
			if len(m.values) == 0 {
				continue
			}
			g.nom = append(g.nom, len(g.fields))
		}
		g.fields = append(g.fields, m)
	}
	if len(g.fields) == 0 {
		return nil, fmt.Errorf("workflow: table %q has no usable fields", tbl.Name)
	}
	return g, nil
}

// Generate produces one workflow according to cfg.
func (g *Generator) Generate(cfg GenConfig) (*Workflow, error) {
	cfg = cfg.withDefaults()
	if !cfg.Type.Valid() {
		return nil, fmt.Errorf("workflow: unknown type %q", cfg.Type)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &genState{g: g, rng: rng, cfg: cfg, flow: &Workflow{Name: cfg.Name, Type: cfg.Type}}

	for len(s.flow.Interactions) < cfg.Interactions {
		switch cfg.Type {
		case IndependentBrowsing:
			s.stepIndependent()
		case SequentialLinking:
			s.stepSequential()
		case OneToNLinking:
			s.stepOneToN()
		case NToOneLinking:
			s.stepNToOne()
		case Mixed:
			s.stepMixed()
		}
	}
	s.flow.Interactions = s.flow.Interactions[:cfg.Interactions]
	if err := s.flow.Validate(); err != nil {
		return nil, fmt.Errorf("workflow: generated invalid workflow: %w", err)
	}
	return s.flow, nil
}

// GenerateSet produces the paper's default configuration: count workflows
// per pure type plus count mixed ones (Sec. 5.1 "10 workflows for each of
// the workflow types ... as well as 10 mixed workflows").
func (g *Generator) GenerateSet(count, interactions int, seed int64) ([]*Workflow, error) {
	var out []*Workflow
	types := append(append([]Type(nil), AllTypes...), Mixed)
	for ti, typ := range types {
		for i := 0; i < count; i++ {
			w, err := g.Generate(GenConfig{
				Type:         typ,
				Interactions: interactions,
				Seed:         seed + int64(ti*1000+i),
				Name:         fmt.Sprintf("%s-%02d", typ, i),
			})
			if err != nil {
				return nil, err
			}
			out = append(out, w)
		}
	}
	return out, nil
}

// InterleaveIngest returns a copy of w with an ingest event of `rows` rows
// inserted after every `every` original interactions — the ingest-aware
// workload shape: data keeps arriving while the analyst explores. The copy
// is deterministic (no randomness), so interleaved workflow sets inherit
// the generator's byte-identical-per-seed contract.
func InterleaveIngest(w *Workflow, every, rows int) *Workflow {
	if every <= 0 || rows <= 0 {
		return w
	}
	out := &Workflow{Name: w.Name + "+ingest", Type: w.Type}
	for i, in := range w.Interactions {
		out.Interactions = append(out.Interactions, in)
		if (i+1)%every == 0 && i != len(w.Interactions)-1 {
			out.Interactions = append(out.Interactions, Interaction{Kind: KindIngest, Rows: rows})
		}
	}
	return out
}

// InterleaveIngestAll applies InterleaveIngest to every workflow.
func InterleaveIngestAll(flows []*Workflow, every, rows int) []*Workflow {
	out := make([]*Workflow, len(flows))
	for i, w := range flows {
		out[i] = InterleaveIngest(w, every, rows)
	}
	return out
}

// genState tracks the evolving graph shape during generation.
type genState struct {
	g    *Generator
	rng  *rand.Rand
	cfg  GenConfig
	flow *Workflow

	vizCount int
	live     []string            // live viz names in creation order
	links    map[string][]string // from -> to
	specs    map[string]*VizSpec
}

func (s *genState) emit(in Interaction) { s.flow.Interactions = append(s.flow.Interactions, in) }

func (s *genState) createViz() string {
	name := fmt.Sprintf("viz_%d", s.vizCount)
	s.vizCount++
	spec := s.randomSpec(name)
	if s.specs == nil {
		s.specs = map[string]*VizSpec{}
		s.links = map[string][]string{}
	}
	s.specs[name] = spec
	s.live = append(s.live, name)
	s.emit(Interaction{Kind: KindCreateViz, Viz: name, Spec: spec})
	return name
}

func (s *genState) link(from, to string) bool {
	for _, t := range s.links[from] {
		if t == to {
			return false
		}
	}
	s.links[from] = append(s.links[from], to)
	s.emit(Interaction{Kind: KindLink, From: from, To: to})
	return true
}

func (s *genState) filterViz(viz string) {
	p := s.randomPredicate()
	s.emit(Interaction{Kind: KindFilter, Viz: viz, Predicate: &p})
}

func (s *genState) selectOn(viz string) {
	spec := s.specs[viz]
	p := s.randomSelection(spec)
	s.emit(Interaction{Kind: KindSelect, Viz: viz, Predicate: &p})
}

func (s *genState) discard(viz string) {
	for i, v := range s.live {
		if v == viz {
			s.live = append(s.live[:i], s.live[i+1:]...)
			break
		}
	}
	delete(s.specs, viz)
	delete(s.links, viz)
	for from := range s.links {
		out := s.links[from][:0]
		for _, t := range s.links[from] {
			if t != viz {
				out = append(out, t)
			}
		}
		s.links[from] = out
	}
	s.emit(Interaction{Kind: KindDiscard, Viz: viz})
}

func (s *genState) randomLive() string {
	return s.live[s.rng.Intn(len(s.live))]
}

// --- per-type Markov steps -------------------------------------------------

// stepIndependent: users browse dimensions and filter single visualizations.
func (s *genState) stepIndependent() {
	switch {
	case len(s.live) == 0:
		s.createViz()
	case len(s.live) < maxVizs && s.rng.Float64() < 0.40:
		s.createViz()
	case len(s.live) > 2 && s.rng.Float64() < 0.08:
		s.discard(s.randomLive())
	default:
		s.filterViz(s.randomLive())
	}
}

// stepSequential: a chain viz_0 -> viz_1 -> ... built incrementally; users
// drill down by selecting on chain members.
func (s *genState) stepSequential() {
	switch {
	case len(s.live) == 0:
		s.createViz()
	case len(s.live) < maxVizs && s.rng.Float64() < 0.35:
		prev := s.live[len(s.live)-1]
		name := s.createViz()
		s.link(prev, name)
	default:
		s.selectOn(s.randomLive())
	}
}

// stepOneToN: one source fans out to N targets; selections on the source
// force all targets to update concurrently.
func (s *genState) stepOneToN() {
	switch {
	case len(s.live) == 0:
		s.createViz()
	case len(s.live) < maxVizs && (len(s.live) < 3 || s.rng.Float64() < 0.30):
		src := s.live[0]
		name := s.createViz()
		s.link(src, name)
	default:
		s.selectOn(s.live[0])
	}
}

// stepNToOne: N sources all feed one target; filters/selections on any
// source update the shared target (incremental multi-dimension filters).
func (s *genState) stepNToOne() {
	switch {
	case len(s.live) == 0:
		s.createViz() // the shared target
	case len(s.live) < maxVizs && (len(s.live) < 3 || s.rng.Float64() < 0.30):
		name := s.createViz()
		s.link(name, s.live[0])
	case s.rng.Float64() < 0.5 && len(s.live) > 1:
		src := s.live[1+s.rng.Intn(len(s.live)-1)]
		s.selectOn(src)
	default:
		if len(s.live) > 1 {
			s.filterViz(s.live[1+s.rng.Intn(len(s.live)-1)])
		} else {
			s.filterViz(s.live[0])
		}
	}
}

// stepMixed blends all behaviours.
func (s *genState) stepMixed() {
	r := s.rng.Float64()
	switch {
	case len(s.live) == 0 || (len(s.live) < maxVizs && r < 0.30):
		name := s.createViz()
		// Half of new vizs get linked to an existing one.
		if len(s.live) > 1 && s.rng.Float64() < 0.5 {
			other := s.live[s.rng.Intn(len(s.live)-1)]
			if s.rng.Float64() < 0.5 {
				s.link(other, name)
			} else {
				s.link(name, other)
			}
		}
	case r < 0.55:
		s.filterViz(s.randomLive())
	case r < 0.85:
		s.selectOn(s.randomLive())
	case r < 0.92 && len(s.live) >= 2:
		a, b := s.randomLive(), s.randomLive()
		if a != b {
			s.link(a, b)
		}
	case len(s.live) > 2:
		s.discard(s.randomLive())
	default:
		s.filterViz(s.randomLive())
	}
}

// --- random specs, filters, selections --------------------------------------

// binCount1D is the default number of bins for 1D visualizations; 2D plots
// use coarser bins per dimension (paper Exp. 3 uses a 100-bin 2D histogram
// and a 25-bin 1D histogram).
const (
	binCount1D = 25
	binCount2D = 10
)

func (s *genState) randomBinning(fi int, dims int) query.Binning {
	m := s.g.fields[fi]
	if m.field.Kind == dataset.Nominal {
		return query.Binning{Field: m.field.Name, Kind: dataset.Nominal}
	}
	bins := binCount1D
	if dims == 2 {
		bins = binCount2D
	}
	width := (m.hi - m.lo) / float64(bins)
	if width <= 0 {
		width = 1
	}
	return query.Binning{Field: m.field.Name, Kind: dataset.Quantitative, Width: width, Origin: m.lo}
}

func (s *genState) randomSpec(name string) *VizSpec {
	dims := 1
	if s.rng.Float64() < 0.25 {
		dims = 2
	}
	fields := s.rng.Perm(len(s.g.fields))[:dims]
	bins := make([]query.Binning, dims)
	for i, fi := range fields {
		bins[i] = s.randomBinning(fi, dims)
	}

	// Aggregate distribution approximating the paper's detailed report
	// (Table 1 is dominated by COUNT and AVG).
	var agg query.Aggregate
	r := s.rng.Float64()
	switch {
	case r < 0.42 || len(s.g.quant) == 0:
		agg = query.Aggregate{Func: query.Count}
	case r < 0.80:
		agg = query.Aggregate{Func: query.Avg, Field: s.randomQuantField()}
	case r < 0.90:
		agg = query.Aggregate{Func: query.Sum, Field: s.randomQuantField()}
	case r < 0.95:
		agg = query.Aggregate{Func: query.Min, Field: s.randomQuantField()}
	default:
		agg = query.Aggregate{Func: query.Max, Field: s.randomQuantField()}
	}
	return &VizSpec{Name: name, Table: s.g.table, Bins: bins, Aggs: []query.Aggregate{agg}}
}

func (s *genState) randomQuantField() string {
	return s.g.fields[s.g.quant[s.rng.Intn(len(s.g.quant))]].field.Name
}

// randomPredicate draws a filter predicate over any attribute; specificity
// varies widely, which the paper identifies as the dominant performance
// factor.
func (s *genState) randomPredicate() query.Predicate {
	if len(s.g.nom) > 0 && (len(s.g.quant) == 0 || s.rng.Float64() < 0.5) {
		m := s.g.fields[s.g.nom[s.rng.Intn(len(s.g.nom))]]
		k := 1 + s.rng.Intn(3)
		if k > len(m.values) {
			k = len(m.values)
		}
		vals := make([]string, 0, k)
		for _, i := range s.rng.Perm(len(m.values))[:k] {
			vals = append(vals, m.values[i])
		}
		return query.Predicate{Field: m.field.Name, Op: query.OpIn, Values: vals}
	}
	m := s.g.fields[s.g.quant[s.rng.Intn(len(s.g.quant))]]
	span := m.hi - m.lo
	width := span * (0.05 + 0.45*s.rng.Float64())
	lo := m.lo + s.rng.Float64()*(span-width)
	return query.Predicate{Field: m.field.Name, Op: query.OpRange, Lo: lo, Hi: lo + width}
}

// randomSelection brushes one bin of the viz's first binning dimension.
func (s *genState) randomSelection(spec *VizSpec) query.Predicate {
	b := spec.Bins[0]
	if b.Kind == dataset.Nominal {
		for _, m := range s.g.fields {
			if m.field.Name == b.Field {
				return query.Predicate{
					Field:  b.Field,
					Op:     query.OpIn,
					Values: []string{m.values[s.rng.Intn(len(m.values))]},
				}
			}
		}
	}
	for _, m := range s.g.fields {
		if m.field.Name == b.Field {
			span := m.hi - m.lo
			nBins := int(span / b.Width)
			if nBins < 1 {
				nBins = 1
			}
			idx := int64(s.rng.Intn(nBins))
			lo := b.BinLow(idx)
			return query.Predicate{Field: b.Field, Op: query.OpRange, Lo: lo, Hi: lo + b.Width}
		}
	}
	// Unreachable for specs produced by this generator.
	return query.Predicate{Field: b.Field, Op: query.OpRange, Lo: 0, Hi: 1}
}
