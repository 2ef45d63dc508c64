// netchaos: a deterministic in-process TCP proxy fabric for the partition
// row's partition-tolerance testing: one proxy per directed inter-shard edge,
// so every byte shard i sends to shard j traverses a choke point the
// harness controls. The fabric injects the network's partial-failure
// repertoire at the socket level:
//
//   - cut: new connections are accepted and immediately closed, live
//     connections are killed — a symmetric partition cuts both
//     directions of every cross-group edge, an asymmetric one cuts a
//     single direction;
//   - blackhole: connections are accepted and then silently starved,
//     so the dialer's request hangs until its own deadline fires —
//     the failure mode that distinguishes deadline-budgeted code from
//     code that merely handles connection errors;
//   - latency: every chunk relayed over the edge is delayed;
//   - reset: established connections are torn down once, while the
//     edge itself stays healthy.
//
// Shards keep their real listen addresses; the fabric slots in at the
// dial layer (DialContext rewrites "dial shard j" into "dial proxy
// (i→j)"), so cluster maps, gossip, and clients all agree on one
// address space while inter-shard traffic stays interceptable.
//
// Which failures occur in which order comes from a seeded, validated,
// replayable Plan (netchaos_plan_test.go), in the style of internal/fault.

package scenario

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Edge is one directed inter-shard link: traffic From → To.
type Edge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// edge modes.
type mode int

const (
	modePass mode = iota
	modeCut
	modeBlackhole
)

// proxy is one edge's TCP relay.
type proxy struct {
	edge   Edge
	target string
	ln     net.Listener

	mu      sync.Mutex
	mode    mode
	latency time.Duration
	conns   map[net.Conn]struct{} // every accepted conn (and its upstream)
	closed  bool

	wg sync.WaitGroup
}

func newProxy(e Edge, target string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{edge: e, target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

func (p *proxy) addr() string { return p.ln.Addr().String() }

func (p *proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			return
		}
		m := p.mode
		lat := p.latency
		if m == modeCut {
			p.mu.Unlock()
			c.Close()
			continue
		}
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		if m == modeBlackhole {
			// Hold the connection open and never relay: the dialer's TCP
			// connect succeeded, but its request vanishes. killConns (on a
			// state change or Close) releases it.
			continue
		}
		p.wg.Add(1)
		go p.relay(c, lat)
	}
}

// relay splices one accepted connection to the target, applying the
// edge latency per relayed chunk in both directions.
func (p *proxy) relay(c net.Conn, lat time.Duration) {
	defer p.wg.Done()
	up, err := net.DialTimeout("tcp", p.target, 2*time.Second)
	if err != nil {
		p.drop(c)
		return
	}
	p.mu.Lock()
	if p.closed || p.mode != modePass {
		p.mu.Unlock()
		up.Close()
		p.drop(c)
		return
	}
	p.conns[up] = struct{}{}
	p.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(2)
	pipe := func(dst, src net.Conn) {
		defer wg.Done()
		buf := make([]byte, 32<<10)
		for {
			n, rerr := src.Read(buf)
			if n > 0 {
				if d := p.currentLatency(); d > 0 {
					time.Sleep(d)
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
			if rerr != nil {
				break
			}
		}
		// Half-close is overkill for an HTTP relay: tearing both sides
		// down on either EOF matches what a failed link would do.
		dst.Close()
		src.Close()
	}
	go pipe(up, c)
	go pipe(c, up)
	wg.Wait()
	p.drop(c)
	p.drop(up)
}

func (p *proxy) currentLatency() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latency
}

func (p *proxy) drop(c net.Conn) {
	c.Close()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// set transitions the edge's mode, killing live connections whenever the
// edge stops passing traffic (cut and blackhole both sever established
// flows; a blackhole only starves connections accepted after it begins).
func (p *proxy) set(m mode, lat time.Duration) {
	p.mu.Lock()
	p.mode = m
	p.latency = lat
	var victims []net.Conn
	if m != modePass {
		for c := range p.conns {
			victims = append(victims, c)
		}
		p.conns = make(map[net.Conn]struct{})
	}
	p.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// reset kills every live connection but leaves the edge passing.
func (p *proxy) reset() {
	p.mu.Lock()
	var victims []net.Conn
	for c := range p.conns {
		victims = append(victims, c)
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

func (p *proxy) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var victims []net.Conn
	for c := range p.conns {
		victims = append(victims, c)
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range victims {
		c.Close()
	}
	p.wg.Wait()
}

// Fabric is the full n-shard proxy mesh: n·(n−1) directed-edge proxies.
type Fabric struct {
	n       int
	targets []string // real shard addrs (host:port), indexed by shard ID
	byAddr  map[string]int

	mu      sync.Mutex
	proxies map[Edge]*proxy
	closed  bool
}

// NewFabric builds the mesh for n shards whose real listen addresses are
// targets[0..n-1], creating one live proxy per directed edge.
func NewFabric(targets []string) (*Fabric, error) {
	n := len(targets)
	if n < 2 {
		return nil, fmt.Errorf("netchaos: need at least 2 shards, got %d", n)
	}
	f := &Fabric{
		n:       n,
		targets: append([]string(nil), targets...),
		byAddr:  make(map[string]int, n),
		proxies: make(map[Edge]*proxy, n*(n-1)),
	}
	for i, t := range targets {
		f.byAddr[t] = i
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			e := Edge{From: i, To: j}
			p, err := newProxy(e, targets[j])
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("netchaos: proxy %s: %w", e, err)
			}
			f.proxies[e] = p
		}
	}
	return f, nil
}

// N returns the shard count the fabric was built for.
func (f *Fabric) N() int { return f.n }

// ProxyAddr returns the listen address of the proxy on edge e.
func (f *Fabric) ProxyAddr(e Edge) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p := f.proxies[e]; p != nil {
		return p.addr()
	}
	return ""
}

// DialContext returns the dialer for shard `from`'s outbound transports:
// dials to a registered shard address are rerouted through the (from →
// to) proxy; anything else (the shard's own address, external services)
// dials directly. Plug it into http.Transport.DialContext.
func (f *Fabric) DialContext(from int) func(ctx context.Context, network, addr string) (net.Conn, error) {
	d := &net.Dialer{Timeout: 2 * time.Second}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		to, ok := f.byAddr[addr]
		if ok && to != from {
			f.mu.Lock()
			p := f.proxies[Edge{From: from, To: to}]
			f.mu.Unlock()
			if p != nil {
				addr = p.addr()
			}
		}
		return d.DialContext(ctx, network, addr)
	}
}

func (f *Fabric) edge(e Edge) (*proxy, error) {
	if e.From < 0 || e.From >= f.n || e.To < 0 || e.To >= f.n || e.From == e.To {
		return nil, fmt.Errorf("netchaos: %w: edge %s out of range for %d shards", ErrInvalid, e, f.n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("netchaos: fabric closed")
	}
	return f.proxies[e], nil
}

// Cut severs edge e: established connections die, new ones are refused.
func (f *Fabric) Cut(e Edge) error {
	p, err := f.edge(e)
	if err != nil {
		return err
	}
	p.set(modeCut, 0)
	return nil
}

// Blackhole starves edge e: new connections are accepted, then nothing.
func (f *Fabric) Blackhole(e Edge) error {
	p, err := f.edge(e)
	if err != nil {
		return err
	}
	p.set(modeBlackhole, 0)
	return nil
}

// SetLatency delays every chunk relayed over edge e by d.
func (f *Fabric) SetLatency(e Edge, d time.Duration) error {
	p, err := f.edge(e)
	if err != nil {
		return err
	}
	p.set(modePass, d)
	return nil
}

// Reset kills edge e's live connections once; the edge keeps passing.
func (f *Fabric) Reset(e Edge) error {
	p, err := f.edge(e)
	if err != nil {
		return err
	}
	p.reset()
	return nil
}

// Restore returns edge e to plain passing with no added latency.
func (f *Fabric) Restore(e Edge) error {
	p, err := f.edge(e)
	if err != nil {
		return err
	}
	p.set(modePass, 0)
	return nil
}

// Partition cuts, in both directions, every edge whose endpoints fall in
// different groups — a symmetric network partition. Groups must cover
// disjoint shard IDs; shards in no group keep full connectivity.
func (f *Fabric) Partition(groups [][]int) error {
	groupOf := make(map[int]int)
	for gi, g := range groups {
		for _, id := range g {
			if _, dup := groupOf[id]; dup {
				return fmt.Errorf("netchaos: %w: shard %d in two partition groups", ErrInvalid, id)
			}
			groupOf[id] = gi
		}
	}
	for i := 0; i < f.n; i++ {
		for j := 0; j < f.n; j++ {
			if i == j {
				continue
			}
			gi, iok := groupOf[i]
			gj, jok := groupOf[j]
			if iok && jok && gi != gj {
				if err := f.Cut(Edge{From: i, To: j}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Heal restores every edge to plain passing.
func (f *Fabric) Heal() {
	f.mu.Lock()
	ps := make([]*proxy, 0, len(f.proxies))
	for _, p := range f.proxies {
		ps = append(ps, p)
	}
	f.mu.Unlock()
	for _, p := range ps {
		p.set(modePass, 0)
	}
}

// Close shuts every proxy down. The fabric is unusable afterwards.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	ps := make([]*proxy, 0, len(f.proxies))
	for _, p := range f.proxies {
		ps = append(ps, p)
	}
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p *proxy) { defer wg.Done(); p.close() }(p)
	}
	wg.Wait()
}
