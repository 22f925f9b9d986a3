package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"idebench/internal/core"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/server"
)

// servingConfig is what the three serving subcommands (serve, shard, coord)
// share: the deterministic dataset every member of a tier derives, the
// listen address, and the connection, admission and drain settings.
type servingConfig struct {
	rows     *int
	seed     *int64
	addr     *string
	maxConns *int
	poll     *time.Duration
	drain    *time.Duration
	// Admission caps; zero (the server defaults) where not registered.
	maxInflight, maxInflightPerConn *int
}

// servingFlags registers the shared serving flags on fs, listening on addr
// by default. admission adds the admission caps — the front of a tier
// admits; a shard behind a coordinator keeps the server defaults.
func servingFlags(fs *flag.FlagSet, addr string, admission bool) *servingConfig {
	c := &servingConfig{
		rows:               fs.Int("rows", core.SizeM, "dataset size (tuples); every member of a sharded tier states the FULL size"),
		seed:               fs.Int64("seed", 1, "dataset seed (clients and every member of a tier must use the same seed)"),
		addr:               fs.String("addr", addr, "listen address"),
		maxConns:           fs.Int("max-conns", server.DefaultMaxConns, "maximum concurrent connections (= engine sessions)"),
		poll:               fs.Duration("poll", server.DefaultPollInterval, "snapshot streaming poll interval"),
		drain:              fs.Duration("drain", 15*time.Second, "graceful-drain budget on SIGTERM/SIGINT"),
		maxInflight:        new(int),
		maxInflightPerConn: new(int),
	}
	if admission {
		c.maxInflight = fs.Int("max-inflight", server.DefaultMaxInflight, "admission cap on concurrently executing queries server-wide")
		c.maxInflightPerConn = fs.Int("max-inflight-per-conn", server.DefaultMaxInflightPerConn, "admission cap on one connection's concurrent queries")
	}
	return c
}

// settings are the benchmark settings the served dataset is built under.
func (c *servingConfig) settings() core.Settings {
	s := core.DefaultSettings()
	s.DataSize = *c.rows
	s.Seed = *c.seed
	return s
}

// options assembles the server options for one serving role over rows
// prepared rows; the caller adds its role's hooks (Apply, Rebalance,
// Durable, Peers).
func (c *servingConfig) options(role string, rows int64) server.Options {
	return server.Options{
		MaxConns:           *c.maxConns,
		PollInterval:       *c.poll,
		Rows:               rows,
		Seed:               *c.seed,
		MaxInflight:        *c.maxInflight,
		MaxInflightPerConn: *c.maxInflightPerConn,
		Role:               role,
	}
}

// listenAndServe serves eng on the configured address: listen, print the
// serving banner (scripts and tests read the bound address from it), then
// serve until it exits or a SIGTERM/SIGINT arrives. The first signal drains
// in-flight queries to their final snapshots within the drain budget, a
// second aborts immediately. onExit (optional) runs on every exit path
// after serving stops.
func (c *servingConfig) listenAndServe(eng engine.Engine, opts server.Options, onExit func() error) error {
	if onExit == nil {
		onExit = func() error { return nil }
	}
	srv := server.New(eng, opts)
	l, err := net.Listen("tcp", *c.addr)
	if err != nil {
		return err
	}
	endpoints := "/healthz"
	if opts.Rebalance != nil {
		endpoints += ", /rebalance"
	}
	fmt.Printf("serving %s (%d rows) on %s — /ws (protocol v%d), %s\n",
		eng.Name(), opts.Rows, l.Addr(), server.ProtoVersion, endpoints)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		return errors.Join(err, onExit())
	case sig := <-sigs:
		fmt.Printf("received %v, draining (budget %v)\n", sig, *c.drain)
		ctx, cancel := context.WithTimeout(context.Background(), *c.drain)
		defer cancel()
		go func() {
			<-sigs
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			_ = onExit()
			return err
		}
		<-done
		if err := onExit(); err != nil {
			return err
		}
		fmt.Println("drained, bye")
		return nil
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	engineName := fs.String("engine", "progressive", "engine: "+strings.Join(core.EngineNames, ", ")+", progressive-spec, systemy")
	useJoins := fs.Bool("joins", false, "use the normalized star schema")
	cfg := servingFlags(fs, ":8373", true)
	dataDir := fs.String("data-dir", "", "durable state directory (checkpoints + ingest WAL); a restart recovers the last served state and resumes")
	ckptWALBytes := fs.Int64("checkpoint-wal-bytes", 8<<20, "with -data-dir: write a background checkpoint once the WAL exceeds this many bytes")
	ckptInterval := fs.Duration("checkpoint-interval", 2*time.Second, "with -data-dir: background checkpointer poll cadence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := cfg.settings()
	s.UseJoins = *useJoins
	b, err := core.Boot(*engineName, *dataDir, s)
	if err != nil {
		return err
	}
	if info := b.Info; info.Recovered {
		mode := "warm"
		if _, ok := b.Engine.(engine.ReorderedPreparer); !ok {
			mode = "re-prepared"
		}
		note := ""
		if info.FellBack {
			note += "; newest checkpoint failed verification, used an older one"
		}
		if info.TruncatedTail {
			note += "; torn WAL tail truncated"
		}
		fmt.Printf("recovered (%s) from %s: checkpoint v%d + %d WAL batches (%d rows) -> watermark %d%s, in %v\n",
			mode, *dataDir, info.CheckpointVersion, info.ReplayedBatches, info.ReplayedRows, info.Watermark,
			note, (b.PrepTime + b.ReplayTime).Round(time.Microsecond))
	} else {
		fmt.Printf("data preparation time: %v\n", b.PrepTime.Round(time.Microsecond))
		if b.Store != nil {
			fmt.Printf("durable state bootstrapped in %s\n", *dataDir)
		}
	}

	opts := cfg.options("", int64(b.DB.Fact.NumRows()))
	if b.Apply != nil {
		opts.Rows = b.Engine.(engine.Watermarker).Watermark()
		opts.Apply = b.Apply.Apply
		fmt.Printf("live ingestion enabled: client ingest frames append to %s\n", b.Engine.Name())
	}
	if b.Store == nil {
		return cfg.listenAndServe(b.Engine, opts, nil)
	}
	opts.Durable = b.Store
	stopCkpt := func() {}
	if vs, ok := b.Engine.(engine.ViewSnapshotter); ok {
		stopCkpt = b.Store.AutoCheckpoint(*ckptInterval, *ckptWALBytes, vs.SnapshotView, func(err error) {
			fmt.Fprintln(os.Stderr, "idebench: background checkpoint:", err)
		})
	}
	// On exit: stop the background checkpointer, capture one final
	// checkpoint (so the next boot replays an empty WAL tail), close the log.
	return cfg.listenAndServe(b.Engine, opts, func() error {
		stopCkpt()
		if err := b.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "idebench: final checkpoint:", err)
		}
		return b.Store.Close()
	})
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable state directory to inspect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return errors.New("inspect: -data-dir is required")
	}
	return durable.Inspect(*dataDir, nil, os.Stdout)
}
