package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"idebench/internal/core"
	"idebench/internal/experiments"
)

func cmdExp(args []string) error {
	names := make([]string, len(experiments.Experiments))
	for i, e := range experiments.Experiments {
		names[i] = e.Name
	}
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	name := fs.String("name", "fig5", "experiment: "+strings.Join(names, ", ")+", all")
	rows := fs.Int("rows", core.SizeM, "dataset size (tuples)")
	count := fs.Int("workflows", 10, "workflows per type")
	interactions := fs.Int("interactions", 18, "interactions per workflow")
	engines := fs.String("engines", "", "comma-separated engine subset (default: all)")
	quick := fs.Bool("quick", false, "reduced configuration for a fast smoke run")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Config{
		Rows:             *rows,
		WorkflowsPerType: *count,
		Interactions:     *interactions,
		Seed:             *seed,
		Out:              os.Stdout,
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}
	if *quick {
		cfg.Rows = core.SizeS
		cfg.WorkflowsPerType = 2
		cfg.Interactions = 10
		cfg.TRs = []time.Duration{2 * time.Millisecond, 12 * time.Millisecond, 40 * time.Millisecond}
	}

	ran := false
	for _, e := range experiments.Experiments {
		if *name != "all" && *name != e.Name {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Printf("[%s done in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (known: %s, all)", *name, strings.Join(names, ", "))
	}
	return nil
}
