// Package faultnet is an in-repo fault-injecting TCP proxy for chaos
// testing the serving path. It sits between a client and the WebSocket
// server on loopback and perturbs the byte stream: added latency and
// jitter, mid-stream connection resets after a byte budget, slow-reader
// throttling, and whole-connection drops. Faults apply per direction and
// can be changed while connections are live; the chaos test wall uses it
// to kill clients mid-query and mid-ingest and then assert the server
// leaked nothing (scan consumers return to baseline, watermarks stay
// consistent).
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Faults describes one direction's perturbations. The zero value is a
// transparent pipe.
type Faults struct {
	// Latency is added before each forwarded chunk; Jitter adds a uniform
	// random extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// ResetAfterBytes hard-resets the connection (RST, not FIN) once this
	// many bytes have been forwarded in this direction. 0 disables. The
	// reset models a client dying mid-frame: the peer sees a connection
	// error with no close handshake.
	ResetAfterBytes int64
	// ThrottleBytesPerSec caps this direction's forwarding rate, modeling a
	// slow reader on the other end. 0 disables.
	ThrottleBytesPerSec int64
	// DropEveryNth closes (FIN) every Nth accepted connection immediately
	// after accepting it, before any bytes flow. 0 disables; applies only
	// on the client→server direction's Faults (the accept side).
	DropEveryNth int64
}

// Proxy is a loopback TCP proxy with injectable faults.
type Proxy struct {
	target string
	ln     net.Listener
	rng    *rand.Rand
	rngMu  sync.Mutex

	mu       sync.Mutex
	upstream Faults // client → server
	down     Faults // server → client
	conns    map[*proxyConn]struct{}
	accepted int64
	closed   bool

	// BytesUp/BytesDown count forwarded bytes per direction. A chunk is
	// counted before it is written on, so a peer that has read it never
	// sees a count that misses it; a chunk whose write fails is counted
	// too.
	BytesUp   atomic.Int64
	BytesDown atomic.Int64

	wg sync.WaitGroup
}

// proxyConn is one live client↔server pair.
type proxyConn struct {
	client, server *net.TCPConn
	closeOnce      sync.Once
}

// New starts a proxy on 127.0.0.1:0 forwarding to target (host:port).
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		ln:     ln,
		rng:    rand.New(rand.NewSource(1)),
		conns:  map[*proxyConn]struct{}{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's dialable address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetFaults replaces both directions' fault configuration. It affects
// bytes forwarded from this point on, including on live connections.
func (p *Proxy) SetFaults(up, down Faults) {
	p.mu.Lock()
	p.upstream, p.down = up, down
	p.mu.Unlock()
}

// ResetAll hard-resets (RST) every live proxied connection, modeling the
// whole client population dying at once.
func (p *Proxy) ResetAll() {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.reset()
	}
}

// ActiveConns returns the number of live proxied connections.
func (p *Proxy) ActiveConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Close stops accepting, resets every live connection, and waits for the
// forwarding goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.ResetAll()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		client := conn.(*net.TCPConn)
		p.mu.Lock()
		p.accepted++
		n := p.accepted
		drop := p.upstream.DropEveryNth
		closed := p.closed
		p.mu.Unlock()
		if closed {
			client.Close()
			return
		}
		if drop > 0 && n%drop == 0 {
			client.Close()
			continue
		}
		serverConn, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		pc := &proxyConn{client: client, server: serverConn.(*net.TCPConn)}
		p.mu.Lock()
		p.conns[pc] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(pc, pc.client, pc.server, true)
		go p.pipe(pc, pc.server, pc.client, false)
	}
}

// reset force-closes both legs with an RST on the client side so the
// server observes an abortive close, not an orderly shutdown.
func (c *proxyConn) reset() {
	c.closeOnce.Do(func() {
		// SO_LINGER 0 turns Close into RST on both legs.
		c.client.SetLinger(0)
		c.server.SetLinger(0)
		c.client.Close()
		c.server.Close()
	})
}

// pipe forwards src→dst applying the direction's current faults per chunk.
func (p *Proxy) pipe(pc *proxyConn, src, dst *net.TCPConn, up bool) {
	defer p.wg.Done()
	defer func() {
		pc.reset()
		p.mu.Lock()
		delete(p.conns, pc)
		p.mu.Unlock()
	}()
	buf := make([]byte, 16<<10)
	var forwarded int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			f := p.faults(up)
			if d := p.delay(f); d > 0 {
				time.Sleep(d)
			}
			if f.ThrottleBytesPerSec > 0 {
				// Pace the chunk: sleep for the time its bytes "cost".
				time.Sleep(time.Duration(float64(n) / float64(f.ThrottleBytesPerSec) * float64(time.Second)))
			}
			if up {
				p.BytesUp.Add(int64(n))
			} else {
				p.BytesDown.Add(int64(n))
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			forwarded += int64(n)
			if f.ResetAfterBytes > 0 && forwarded >= f.ResetAfterBytes {
				return // deferred reset() sends the RST
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *Proxy) faults(up bool) Faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	if up {
		return p.upstream
	}
	return p.down
}

func (p *Proxy) delay(f Faults) time.Duration {
	d := f.Latency
	if f.Jitter > 0 {
		p.rngMu.Lock()
		d += time.Duration(p.rng.Int63n(int64(f.Jitter)))
		p.rngMu.Unlock()
	}
	return d
}

// ErrClosed is returned by operations on a closed proxy.
var ErrClosed = errors.New("faultnet: proxy closed")
