package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"idebench/internal/core"
	"idebench/internal/datagen"
	"idebench/internal/dataset"
	"idebench/internal/workflow"
)

func cmdDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	rows := fs.Int("rows", core.SizeM, "number of tuples to generate")
	seedRows := fs.Int("seed-rows", 20000, "seed table size the copula scaler is fitted on")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "flights.csv", "output CSV path")
	showStats := fs.Bool("stats", false, "print per-column statistics of the generated data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()
	seedTbl, err := datagen.GenerateSeed(*seedRows, *seed)
	if err != nil {
		return err
	}
	tbl, err := datagen.ScaleTable(seedTbl, *rows, *seed+1)
	if err != nil {
		return err
	}
	if err := dataset.WriteCSVFile(*out, tbl); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows to %s in %v\n", tbl.NumRows(), *out, time.Since(start).Round(time.Millisecond))
	if *showStats {
		if err := dataset.RenderStats(os.Stdout, dataset.Stats(tbl)); err != nil {
			return err
		}
	}
	return nil
}

func cmdWorkloadgen(args []string) error {
	fs := flag.NewFlagSet("workloadgen", flag.ExitOnError)
	rows := fs.Int("rows", 50000, "rows of generated data to derive value domains from")
	data := fs.String("data", "", "optional CSV dataset to derive domains from (flights schema)")
	count := fs.Int("count", 10, "workflows per type")
	interactions := fs.Int("interactions", 18, "interactions per workflow")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "workflows.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tbl *dataset.Table
	var err error
	if *data != "" {
		tbl, err = dataset.ReadCSVFile(*data, datagen.FlightsTable, datagen.FlightsSchema())
	} else {
		db, berr := core.BuildData(*rows, false, *seed)
		if berr != nil {
			return berr
		}
		tbl = db.Fact
	}
	if err != nil {
		return err
	}
	gen, err := workflow.NewGenerator(tbl)
	if err != nil {
		return err
	}
	flows, err := gen.GenerateSet(*count, *interactions, *seed+100)
	if err != nil {
		return err
	}
	if err := workflow.SaveFile(*out, flows); err != nil {
		return err
	}
	fmt.Printf("wrote %d workflows to %s\n", len(flows), *out)
	return nil
}

func cmdView(args []string) error {
	fs := flag.NewFlagSet("view", flag.ExitOnError)
	path := fs.String("workflows", "workflows.json", "workflow JSON file to inspect")
	name := fs.String("name", "", "only show the named workflow")
	dot := fs.Bool("dot", false, "emit the link graph as Graphviz DOT instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	flows, err := workflow.LoadFile(*path)
	if err != nil {
		return err
	}
	shown := 0
	for _, f := range flows {
		if *name != "" && f.Name != *name {
			continue
		}
		var out string
		if *dot {
			out, err = workflow.DOT(f)
		} else {
			out, err = workflow.Describe(f)
		}
		if err != nil {
			return err
		}
		fmt.Println(out)
		shown++
	}
	if shown == 0 {
		return fmt.Errorf("no workflows matched (file has %d)", len(flows))
	}
	return nil
}
