package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/engine"
	"idebench/internal/engine/exactdb"
	"idebench/internal/query"
)

// The smoke test runs every workload at -scale tiny, untraced and traced.
// It asserts what is emitted and that the checks pass, never a timing.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is not what `bench -spec` prints; regenerate it")
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, p: tinyScale, seed: defaultSeed, window: time.Second, trace: trace, outDir: t.TempDir()}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, why := range res.wrong {
				t.Errorf("%s trace=%v: %s", w.Name, trace, why)
			}
			if res.attempted == 0 {
				t.Errorf("%s trace=%v: nothing attempted", w.Name, trace)
			}
			for _, m := range printed(res, true) {
				v, ok := res.values[m.Name]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s %s = %v", w.Name, m.Name, v)
				}
				// Every workload measures every end-to-end metric; a
				// per-layer metric of a layer the workload bypasses reads 0.
				if !trace && (!ok || v <= 0) {
					t.Errorf("%s %s = %v, want a measurement", w.Name, m.Name, v)
				}
			}
			if trace {
				if _, err := os.Stat(res.tracePath); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				for name := range res.values {
					if !nameRE.MatchString(name) {
						t.Errorf("%s: emitted metric name %q", w.Name, name)
					}
				}
			}
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	db, err := core.BuildData(tinyScale.inprocRows, false, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) string {
		dg := newDigester()
		if _, err := buildScripts(db.Fact, tinyScale, seed, 2, dg); err != nil {
			t.Fatal(err)
		}
		buildLadder(seed, time.Second, 2, dg)
		if _, err := buildBatches(tinyScale, seed, 3, dg); err != nil {
			t.Fatal(err)
		}
		return dg.hex()
	}
	if a, b := digest(defaultSeed), digest(defaultSeed); a != b {
		t.Errorf("same seed, digests %s and %s", a, b)
	}
	if a, b := digest(defaultSeed), digest(heldOutSeed); a == b {
		t.Errorf("seeds %d and %d give the same digest %s", defaultSeed, heldOutSeed, a)
	}
}

// The decorators only read the clock: the same queries through a decorated
// and an undecorated session give bit-identical results.
func TestDecoratorsPreserveResults(t *testing.T) {
	db, err := core.BuildData(20_000, false, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	eng := exactdb.New()
	if err := eng.Prepare(db, engineOptions(defaultSeed)); err != nil {
		t.Fatal(err)
	}
	scripts, err := buildScripts(db.Fact, tinyScale, defaultSeed, 1, newDigester())
	if err != nil {
		t.Fatal(err)
	}
	plain := eng.OpenSession()
	decorated := newTracedEngine(eng, newRecorder(), engineSeam()).OpenSession()
	run := func(sess engine.Session) []map[query.BinKey][]uint64 {
		var out []map[query.BinKey][]uint64
		for _, st := range scripts[0].steps {
			tell(sess, st)
			for _, q := range st.queries {
				h, err := sess.StartQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				<-h.Done()
				res := h.Snapshot()
				bins := map[query.BinKey][]uint64{}
				for k, bv := range res.Bins {
					for _, v := range bv.Values {
						bins[k] = append(bins[k], math.Float64bits(v))
					}
				}
				out = append(out, bins)
			}
		}
		return out
	}
	a, b := run(plain), run(decorated)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("%d results undecorated, %d decorated", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("query %d: %d bins undecorated, %d decorated", i, len(a[i]), len(b[i]))
		}
		for k, av := range a[i] {
			bv := b[i][k]
			if len(av) != len(bv) {
				t.Fatalf("query %d bin %v: value counts differ", i, k)
			}
			for j := range av {
				if av[j] != bv[j] {
					t.Errorf("query %d bin %v agg %d: bits differ", i, k, j)
				}
			}
		}
	}
}
