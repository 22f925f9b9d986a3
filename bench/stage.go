package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/ingest"
	"idebench/internal/server"
	"idebench/internal/shard"
)

// The four workloads. Names are final: later issues refer to them.
const (
	wlInproc  = "explore-inproc"
	wlServed  = "explore-served"
	wlSharded = "explore-sharded"
	wlIngest  = "ingest-mixed"
)

const shardPartitions = 2

// stage is one workload's system under test, set up and ready to be driven.
type stage struct {
	wl   string
	p    params
	seed int64
	rec  *recorder // nil when tracing is off

	db  *dataset.Database // base data; the ground-truth source
	top engine.Engine     // what the loops drive
	tr  time.Duration     // when the analyst's screen is sampled
	// think is the pause between a closed-loop analyst's interactions.
	think time.Duration

	// engines are the progressive engines doing the scanning (one, or one
	// per partition); the leak check and the scan sampler read them.
	engines []*progressive.Engine
	// timings are the set-up stages in seconds, by per-layer metric name.
	timings map[string]float64
	closers []func()

	servers   []*server.Server
	listeners []*countingListener // traced runs only
	remotes   []*server.Remote
	hops      map[string]*tracedEngine // decorators by seam, traced runs only

	// ingest-mixed
	dataDir  string
	store    *durable.Store
	cfs      *countingFS
	applier  *ingest.Applier
	stopCkpt func()
	ing      *ingestTrace
}

func engineOptions(seed int64) engine.Options {
	return engine.Options{Confidence: core.DefaultConfidence, Seed: seed}
}

// decorate wraps eng at a seam when the run is traced.
func (s *stage) decorate(eng engine.Engine, sm seam) engine.Engine {
	if s.rec == nil {
		return eng
	}
	t := newTracedEngine(eng, s.rec, sm)
	s.hops[sm.hop] = t
	return t
}

func (s *stage) timed(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	s.timings[name] += time.Since(t0).Seconds()
	return err
}

// serve boots eng behind server.New on a loopback port and returns the
// address.
func (s *stage) serve(eng engine.Engine, opts server.Options) (string, error) {
	srv := server.New(eng, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if s.rec != nil {
		cl := &countingListener{Listener: l}
		s.listeners = append(s.listeners, cl)
		l = cl
	}
	done := make(chan struct{})
	go func() { srv.Serve(l); close(done) }()
	s.servers = append(s.servers, srv)
	s.closers = append(s.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
		<-done
	})
	return l.Addr().String(), nil
}

func (s *stage) prepare(db *dataset.Database) (*progressive.Engine, error) {
	eng := progressive.New(progressive.Config{})
	err := s.timed("progressive.prepare_s", func() error { return eng.Prepare(db, engineOptions(s.seed)) })
	if err != nil {
		return nil, err
	}
	s.engines = append(s.engines, eng)
	return eng, nil
}

// topSeam is the seam the loops drive; its spans hang under the
// operation's root.
func topSeam(start, snap, run string) seam {
	return seam{hop: "top", start: start, snap: snap, run: run, startUnder: rootRef, runUnder: rootRef}
}

// attached names the run span of a seam on the progressive engine: from
// StartQuery's return to Done the query is a consumer attached to the shared
// scan. A decorator cannot tell the chunks it is fed from the waits for a
// core between them; both are inside the span.
const attached = "sharedscan.attached"

// engineSeam is the top seam of a workload that drives the engine directly.
func engineSeam() seam {
	return topSeam("progressive.start_query", "progressive.snapshot", attached)
}

// underServer is the seam below server.New: the engine a server drives, on
// behalf of the client whose round trip is the span client.
func underServer(hop string, client spanRef) seam {
	return seam{hop: hop, start: "progressive.start_query", snap: "progressive.snapshot",
		partial: "progressive.partial", run: attached, startUnder: client, runUnder: client}
}

// buildStage sets one workload's system up from the seed. workdir is where
// ingest-mixed keeps its data directory.
func buildStage(wl string, p params, seed int64, rec *recorder, workdir string) (st *stage, err error) {
	s := &stage{wl: wl, p: p, seed: seed, rec: rec, think: thinkTime, timings: make(map[string]float64), hops: make(map[string]*tracedEngine)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	rows := map[string]int{wlInproc: p.inprocRows, wlServed: p.servedRows, wlSharded: p.shardedRows, wlIngest: p.ingestRows}[wl]
	if rows == 0 {
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	err = s.timed("datagen.build_s", func() error {
		s.db, err = core.BuildData(rows, false, seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	switch wl {
	case wlInproc:
		s.tr = trInproc
		eng, err := s.prepare(s.db)
		if err != nil {
			return nil, err
		}
		s.top = s.decorate(eng, engineSeam())

	case wlServed:
		s.tr, s.think = trServed, 0
		eng, err := s.prepare(s.db)
		if err != nil {
			return nil, err
		}
		addr, err := s.serve(s.decorate(eng, underServer("server", spanRef{"top", "server.roundtrip"})),
			server.Options{Rows: int64(rows), Seed: seed})
		if err != nil {
			return nil, err
		}
		rem, err := server.NewRemote(addr)
		if err != nil {
			return nil, err
		}
		s.remotes = append(s.remotes, rem)
		s.closers = append(s.closers, rem.Close)
		s.top = s.decorate(rem, topSeam("server.client_send", "", "server.roundtrip"))

	case wlSharded:
		s.tr = trSharded
		var parts []*dataset.Database
		err := s.timed("shard.partition_s", func() error {
			parts, err = shard.Partition(s.db, shardPartitions)
			return err
		})
		if err != nil {
			return nil, err
		}
		backends := make([]engine.Engine, len(parts))
		for i, part := range parts {
			eng, err := s.prepare(part)
			if err != nil {
				return nil, err
			}
			backend := fmt.Sprintf("backend%d", i)
			addr, err := s.serve(s.decorate(eng, underServer(fmt.Sprintf("shardsrv%d", i), spanRef{backend, "server.roundtrip"})),
				server.Options{Rows: int64(part.Fact.NumRows()), Seed: seed, Role: "shard"})
			if err != nil {
				return nil, err
			}
			rem, err := server.NewRemoteWithOptions(addr, server.RemoteOptions{Partials: true})
			if err != nil {
				return nil, err
			}
			s.remotes = append(s.remotes, rem)
			s.closers = append(s.closers, rem.Close)
			backends[i] = s.decorate(rem, seam{hop: backend, start: "server.client_send", run: "server.roundtrip",
				startUnder: spanRef{"top", "shard.start_query"}, runUnder: spanRef{"top", "shard.gather"}})
		}
		co, err := shard.NewCoordinator(backends...)
		if err != nil {
			return nil, err
		}
		// Against remote backends Prepare partitions again and checks each
		// shard serves the partition it computed: the cost of booting a
		// coordinator, so it is part of set-up.
		err = s.timed("shard.coord_prepare_s", func() error { return co.Prepare(s.db, engineOptions(seed)) })
		if err != nil {
			return nil, err
		}
		s.top = s.decorate(co, topSeam("shard.start_query", "shard.snapshot", "shard.gather"))

	case wlIngest:
		s.tr = trIngest
		eng, err := s.prepare(s.db)
		if err != nil {
			return nil, err
		}
		if err := s.bootDurable(eng, workdir); err != nil {
			return nil, err
		}
		s.top = s.decorate(eng, engineSeam())
	}
	return s, nil
}

func (s *stage) durableOptions() durable.Options {
	o := durable.Options{Meta: durable.Meta{Engine: "progressive", Seed: s.seed, BaseRows: int64(s.p.ingestRows)}}
	if s.cfs != nil {
		o.FS = s.cfs
	}
	return o
}

// bootDurable gives eng a durable store on a fresh directory — default
// options, fsync on every batch — and wires the write path the way `idebench
// serve -data-dir` does: validate, log, apply; checkpoints in the background.
func (s *stage) bootDurable(eng *progressive.Engine, workdir string) error {
	dir, err := os.MkdirTemp(workdir, "ingest-data-")
	if err != nil {
		return err
	}
	s.dataDir = dir
	s.closers = append(s.closers, func() { os.RemoveAll(dir) })
	if s.rec != nil {
		s.cfs = &countingFS{FS: durable.OSFS{}}
		s.ing = &ingestTrace{rec: s.rec}
	}
	err = s.timed("durable.bootstrap_s", func() error {
		s.store, err = durable.Open(filepath.Join(dir, "store"), s.durableOptions())
		if err != nil {
			return err
		}
		if _, err := s.store.Recover(); err != nil {
			return err
		}
		db, perm := eng.SnapshotView()
		return s.store.Bootstrap(db, perm)
	})
	if err != nil {
		return err
	}
	var app engine.Appender = eng
	logBatch := s.store.LogBatch
	snap := eng.SnapshotView
	if s.ing != nil {
		app, logBatch, snap = s.ing.decorate(eng, s.store.LogBatch, eng.SnapshotView)
	}
	s.applier = ingest.NewApplier(s.db, app)
	s.applier.SetLog(logBatch)
	s.stopCkpt = s.store.AutoCheckpoint(s.p.ckptInterval, s.p.ckptWALBytes, snap, func(err error) {
		fmt.Fprintln(os.Stderr, "bench: background checkpoint:", err)
	})
	return nil
}

// stopDurable stops the checkpointer and closes the log; idempotent.
func (s *stage) stopDurable() error {
	if s.stopCkpt != nil {
		s.stopCkpt()
		s.stopCkpt = nil
	}
	if s.store != nil {
		err := s.store.Close()
		s.store = nil
		return err
	}
	return nil
}

// close tears the stage down in reverse order of set-up.
func (s *stage) close() {
	s.stopDurable()
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// leakedConsumers waits for the shared scans to drain and returns how many
// consumers are still attached.
func (s *stage) leakedConsumers() int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := 0
		for _, e := range s.engines {
			n += e.ActiveScanConsumers()
		}
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
}
