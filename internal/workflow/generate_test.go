package workflow

import (
	"testing"
	"testing/quick"

	"idebench/internal/datagen"
	"idebench/internal/dataset"
)

func testGenerator(t *testing.T) *Generator {
	t.Helper()
	tbl, err := datagen.GenerateSeed(2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(tbl)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateAllTypes(t *testing.T) {
	g := testGenerator(t)
	for _, typ := range append(append([]Type(nil), AllTypes...), Mixed) {
		w, err := g.Generate(GenConfig{Type: typ, Interactions: 24, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if len(w.Interactions) != 24 {
			t.Errorf("%s: %d interactions, want 24", typ, len(w.Interactions))
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s: generated workflow invalid: %v", typ, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := testGenerator(t)
	a, err := g.Generate(GenConfig{Type: Mixed, Interactions: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(GenConfig{Type: Mixed, Interactions: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Interactions) != len(b.Interactions) {
		t.Fatal("lengths differ")
	}
	for i := range a.Interactions {
		if a.Interactions[i].Kind != b.Interactions[i].Kind ||
			a.Interactions[i].Viz != b.Interactions[i].Viz {
			t.Fatalf("interaction %d differs", i)
		}
	}
}

func TestGenerateUnknownType(t *testing.T) {
	g := testGenerator(t)
	if _, err := g.Generate(GenConfig{Type: "bogus"}); err == nil {
		t.Error("unknown type should error")
	}
}

func TestGeneratorEmptyTable(t *testing.T) {
	schema := dataset.MustSchema([]dataset.Field{{Name: "x", Kind: dataset.Quantitative}})
	tbl, err := dataset.NewBuilder("t", schema, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenerator(tbl); err == nil {
		t.Error("empty table should error")
	}
}

func TestIndependentHasNoLinks(t *testing.T) {
	g := testGenerator(t)
	w, err := g.Generate(GenConfig{Type: IndependentBrowsing, Interactions: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range w.Interactions {
		if in.Kind == KindLink || in.Kind == KindSelect {
			t.Fatalf("independent browsing produced %s", in.Kind)
		}
	}
}

func TestOneToNShape(t *testing.T) {
	g := testGenerator(t)
	w, err := g.Generate(GenConfig{Type: OneToNLinking, Interactions: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// All links must share the same source (viz_0).
	for _, in := range w.Interactions {
		if in.Kind == KindLink && in.From != "viz_0" {
			t.Errorf("1:N link from %q, want viz_0", in.From)
		}
		if in.Kind == KindSelect && in.Viz != "viz_0" {
			t.Errorf("1:N select on %q, want viz_0", in.Viz)
		}
	}
}

func TestNToOneShape(t *testing.T) {
	g := testGenerator(t)
	w, err := g.Generate(GenConfig{Type: NToOneLinking, Interactions: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range w.Interactions {
		if in.Kind == KindLink && in.To != "viz_0" {
			t.Errorf("N:1 link to %q, want viz_0", in.To)
		}
	}
}

func TestSequentialChainShape(t *testing.T) {
	g := testGenerator(t)
	w, err := g.Generate(GenConfig{Type: SequentialLinking, Interactions: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Each link's source must be the viz created immediately before the
	// target (chain property).
	created := []string{}
	for _, in := range w.Interactions {
		switch in.Kind {
		case KindCreateViz:
			created = append(created, in.Viz)
		case KindLink:
			if len(created) < 2 {
				t.Fatal("link before two creates")
			}
			if in.From != created[len(created)-2] || in.To != created[len(created)-1] {
				t.Errorf("non-chain link %s->%s", in.From, in.To)
			}
		}
	}
}

// Property: every generated workflow replays cleanly through a Graph.
func TestGeneratedWorkflowsReplay(t *testing.T) {
	g := testGenerator(t)
	types := append(append([]Type(nil), AllTypes...), Mixed)
	f := func(seed int64, typPick uint8) bool {
		typ := types[int(typPick)%len(types)]
		w, err := g.Generate(GenConfig{Type: typ, Interactions: 25, Seed: seed})
		if err != nil {
			return false
		}
		graph := NewGraph()
		for _, in := range w.Interactions {
			eff, err := graph.Apply(in)
			if err != nil {
				return false
			}
			for _, q := range eff.Queries {
				if err := q.Validate(); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGenerateSet(t *testing.T) {
	g := testGenerator(t)
	flows, err := g.GenerateSet(3, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 15 { // 4 pure types + mixed, 3 each
		t.Fatalf("generated %d workflows, want 15", len(flows))
	}
	byType := map[Type]int{}
	for _, f := range flows {
		byType[f.Type]++
		if len(f.Interactions) != 12 {
			t.Errorf("workflow %s has %d interactions", f.Name, len(f.Interactions))
		}
	}
	for _, typ := range append(append([]Type(nil), AllTypes...), Mixed) {
		if byType[typ] != 3 {
			t.Errorf("type %s: %d workflows, want 3", typ, byType[typ])
		}
	}
}

func TestGeneratedWorkflowsProduceConcurrentQueries(t *testing.T) {
	g := testGenerator(t)
	w, err := g.Generate(GenConfig{Type: OneToNLinking, Interactions: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	graph := NewGraph()
	maxConcurrent := 0
	for _, in := range w.Interactions {
		eff, err := graph.Apply(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(eff.Queries) > maxConcurrent {
			maxConcurrent = len(eff.Queries)
		}
	}
	if maxConcurrent < 2 {
		t.Errorf("1:N workflow never triggered concurrent queries (max %d)", maxConcurrent)
	}
}

// BenchmarkWorkloadGenerator measures workflow generation cost.
func BenchmarkWorkloadGenerator(b *testing.B) {
	seed, err := datagen.GenerateSeed(10_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(GenConfig{Type: Mixed, Interactions: 18, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
