package main

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idebench/internal/durable"
)

// countingListener hands out connections that count what the server writes:
// one Write is one WebSocket frame (ws.go sends header and payload together).
type countingListener struct {
	net.Listener
	writes, bytes atomic.Int64
	mu            sync.Mutex
	sizes         []float64 // bytes of each write
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

func (l *countingListener) frameSizes() series {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(series(nil), l.sizes...)
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(n))
	c.l.mu.Lock()
	c.l.sizes = append(c.l.sizes, float64(n))
	c.l.mu.Unlock()
	return n, err
}

// countingFS counts the bytes and fsyncs the durability layer hands to the
// filesystem, split by whether the path is in the write-ahead log or in a
// checkpoint. The counts are exact; the fsync timings are the sandbox's.
type countingFS struct {
	durable.FS
	walBytes, ckptBytes atomic.Int64
	walSyncs            atomic.Int64
	mu                  sync.Mutex
	walSyncUS           []float64
	// renamed receives the time of every checkpoint directory rename, the
	// instant a checkpoint commits.
	renamed []time.Time
}

func (f *countingFS) wrap(path string, file durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f, wal: strings.Contains(path, "/wal/")}, nil
}

func (f *countingFS) Create(path string) (durable.File, error) {
	file, err := f.FS.Create(path)
	return f.wrap(path, file, err)
}

func (f *countingFS) OpenAppend(path string) (durable.File, error) {
	file, err := f.FS.OpenAppend(path)
	return f.wrap(path, file, err)
}

func (f *countingFS) Rename(oldPath, newPath string) error {
	err := f.FS.Rename(oldPath, newPath)
	if err == nil && strings.Contains(newPath, "/checkpoints/") {
		f.mu.Lock()
		f.renamed = append(f.renamed, time.Now())
		f.mu.Unlock()
	}
	return err
}

type countingFile struct {
	durable.File
	fs  *countingFS
	wal bool
}

func (c *countingFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	if c.wal {
		c.fs.walBytes.Add(int64(n))
	} else {
		c.fs.ckptBytes.Add(int64(n))
	}
	return n, err
}

func (c *countingFile) Sync() error {
	t0 := time.Now()
	err := c.File.Sync()
	if c.wal {
		d := time.Since(t0)
		c.fs.walSyncs.Add(1)
		c.fs.mu.Lock()
		c.fs.walSyncUS = append(c.fs.walSyncUS, us(d))
		c.fs.mu.Unlock()
	}
	return err
}
