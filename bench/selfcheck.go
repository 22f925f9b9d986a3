package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// selfcheckRepeats is how many runs each of the two sets holds.
const selfcheckRepeats = 3

// selfCheck runs two sets of repeats of every workload on the same code,
// alternating which set a run belongs to, and fails unless the two sets'
// medians agree within each end-to-end metric's bound: a benchmark that
// cannot repeat itself cannot judge a change. Generated inputs and exact
// counts must repeat exactly.
func selfCheck(cfg runConfig) bool {
	type metricCheck struct {
		Metric  string     `json:"metric"`
		Unit    string     `json:"unit"`
		Bound   float64    `json:"bound"`
		Sets    [2]summary `json:"sets"`
		Delta   float64    `json:"median_delta"`
		Spread  float64    `json:"spread"`
		Agrees  bool       `json:"agrees"`
		Resolve bool       `json:"spread_within_bound"`
	}
	type workloadCheck struct {
		Workload string        `json:"workload"`
		Digest   string        `json:"workload_digest"`
		Metrics  []metricCheck `json:"metrics"`
		Problems []string      `json:"problems,omitempty"`
	}
	var doc []workloadCheck
	ok := true
	for _, w := range workloadSpecs {
		cfg.workload, cfg.trace = w.Name, false
		wc := workloadCheck{Workload: w.Name}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfcheckRepeats; i++ {
			res, err := runWorkload(cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			report(res, false)
			wc.Problems = append(append(wc.Problems, res.wrong...), res.broken...)
			if wc.Digest == "" {
				wc.Digest = res.digest
			} else if res.digest != wc.Digest {
				wc.Problems = append(wc.Problems, fmt.Sprintf("workload_digest %s differs from %s under the same seed", res.digest, wc.Digest))
			}
			for _, m := range endToEnd {
				sets[i%2][m.Name] = append(sets[i%2][m.Name], res.values[m.Name])
			}
		}
		for _, m := range endToEnd {
			a, b := summarizeSet(sets[0][m.Name]), summarizeSet(sets[1][m.Name])
			mc := metricCheck{Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Sets: [2]summary{a, b}}
			if a.Median != 0 {
				mc.Delta = math.Abs(b.Median-a.Median) / math.Abs(a.Median)
			}
			all := summarizeSet(append(append([]float64(nil), sets[0][m.Name]...), sets[1][m.Name]...))
			if all.Median != 0 {
				mc.Spread = (all.Q3 - all.Q1) / math.Abs(all.Median)
			}
			mc.Agrees = mc.Delta <= m.Bound
			mc.Resolve = mc.Spread <= m.Bound
			fmt.Printf("selfcheck %s %s median %.6g vs %.6g %s delta %.2f%% spread %.2f%% bound %.0f%% agrees=%v\n",
				w.Name, m.Name, a.Median, b.Median, m.Unit, 100*mc.Delta, 100*mc.Spread, 100*m.Bound, mc.Agrees)
			ok = ok && mc.Agrees
			wc.Metrics = append(wc.Metrics, mc)
		}
		ok = ok && len(wc.Problems) == 0
		doc = append(doc, wc)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(cfg.outDir, "selfcheck.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
	return ok
}

type summary struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarizeSet(values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{q1, med, q3, len(values)}
}
