// Command bench is the repository's benchmark: four interactive-data-
// exploration workloads, each set up from a seed, driven for a fixed window
// with tracing off, checked for correctness, and reported as named metrics;
// and a second, traced run of the same inputs that says where in the layers
// the time went. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
		all       = flag.Bool("all", false, "run every workload, untraced then traced")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of repeats of every workload and compare their medians")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		seed      = flag.Int64("seed", defaultSeed, "seed of every generated input")
		seconds   = flag.Int("seconds", runSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics")
		scale     = flag.String("scale", "full", "full, or tiny for a smoke run")
	)
	flag.Parse()
	// One P more than the machine has cores: the engine sizes its scan pool
	// to the cores, and the load generator — which a real deployment runs
	// elsewhere — must not have to wait for a scan worker to yield before it
	// can look at the clock (see sleepUntil).
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	if *spec {
		doc, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	}
	if err := specMatchesFile(); err != nil {
		fatal(err)
	}
	p := fullScale
	switch *scale {
	case "full":
	case "tiny":
		p = tinyScale
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	cfg := runConfig{p: p, seed: *seed, window: time.Duration(*seconds) * time.Second, outDir: filepath.Join("bench", "out")}
	printEnvironment()

	ok := true
	switch {
	case *selfcheck:
		ok = selfCheck(cfg)
	case *all:
		for _, w := range workloadSpecs {
			for _, traced := range []bool{false, true} {
				cfg.workload, cfg.trace = w.Name, traced
				res, err := runWorkload(cfg)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.Name, err))
				}
				ok = report(res, false) && ok
			}
		}
	case *workload != "":
		cfg.workload, cfg.trace = *workload, *trace != 0
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *workload, err))
		}
		ok = report(res, true)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// specMatchesFile holds the BENCHMARK.json of the checkout the program runs
// in to the tables it was built from. The harness is a module of its own, so
// no test of the repository's module does; every run of the benchmark does.
func specMatchesFile() error {
	got, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		return nil // not run from a checkout's root
	}
	if err != nil {
		return err
	}
	want, err := benchmarkJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("BENCHMARK.json is not what -spec prints: the file and bench/spec.go name different metrics; regenerate it")
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// printed lists the metrics a run prints: with tracing off the end-to-end
// metrics (plus, outside the driver's contract, the workload-specific ones
// the run measured); with tracing on every per-layer metric.
func printed(res *runResult, contract bool) []metric {
	if res.traced {
		return perLayer
	}
	list := append([]metric(nil), endToEnd...)
	if contract {
		return list
	}
	for _, name := range untracedExtras {
		if _, ok := res.values[name]; !ok {
			continue
		}
		for _, m := range perLayer {
			if m.Name == name {
				list = append(list, m)
			}
		}
	}
	return list
}

// report prints a run: one "workload metric value unit" line per metric,
// any failed check, and — under the driver's contract — the result object as
// the last line. It returns whether the run is a valid measurement.
func report(res *runResult, contract bool) bool {
	mode := "untraced"
	if res.traced {
		mode = "traced"
	}
	fmt.Printf("# %s %s workload_digest=%s attempted=%d failed=%d\n", res.workload, mode, res.digest, res.attempted, res.failed)
	list := printed(res, contract)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := make(map[string]value, len(list))
	for _, m := range list {
		v, measured := res.values[m.Name]
		if !measured && !contract {
			continue // the workload does not exercise this layer
		}
		values[m.Name] = value{v, m.Unit}
		line := fmt.Sprintf("%s %s %s %s", res.workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
		if n := res.counts[m.Name]; n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
	for _, why := range res.wrong {
		fmt.Printf("# WRONG %s: %s\n", res.workload, why)
	}
	for _, why := range res.broken {
		fmt.Printf("# INVALID %s: %s\n", res.workload, why)
	}
	valid := len(res.wrong) == 0 && len(res.broken) == 0
	if contract {
		doc, err := json.Marshal(struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{valid, max(res.attempted, 1), res.failed, values})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(doc))
	}
	return valid
}

// printEnvironment records what the numbers were taken on.
func printEnvironment() {
	commit := os.Getenv("BENCH_COMMIT") // set by run.sh
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	load := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			load = f[0]
			if v, err := strconv.ParseFloat(f[0], 64); err == nil && v > 0.5 {
				fmt.Fprintf(os.Stderr, "bench: WARNING load average %.2f at start: something else is using this machine\n", v)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s loadavg=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, load)
}
