package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"time"

	"robustset"
	"robustset/internal/points"
	"robustset/internal/transport"
)

// universe is every workload's point domain: d=2, Δ=2²⁰.
var universe = points.Universe{Dim: 2, Delta: 1 << 20}

// rng derives an independent deterministic stream from the run seed
// and a purpose-specific stream number.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+1))
}

func uniformPoints(r *rand.Rand, n int) []points.Point {
	pts := make([]points.Point, n)
	for i := range pts {
		pts[i] = points.Point{r.Int64N(universe.Delta), r.Int64N(universe.Delta)}
	}
	return pts
}

// sortedKeys packs each 2-d point of the universe into one uint64 and
// returns the keys sorted, reusing dst: two multisets are equal exactly
// when their sorted keys are.
func sortedKeys(dst []uint64, pts []points.Point) ([]uint64, error) {
	dst = dst[:0]
	for _, p := range pts {
		if len(p) != 2 || p[0] < 0 || p[1] < 0 || p[0] >= universe.Delta || p[1] >= universe.Delta {
			return dst, fmt.Errorf("point %v outside the universe", p)
		}
		dst = append(dst, uint64(p[0])<<20|uint64(p[1]))
	}
	slices.Sort(dst)
	return dst, nil
}

// digest is an order-sensitive hash of sorted keys.
func digest(keys []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, k := range keys {
		h ^= k
		h *= 1099511628211
		h ^= h >> 29
	}
	return h
}

// naiveBytes is the size of the full-set encoding of n points.
func naiveBytes(n int) int64 { return int64(n * points.EncodedSize(universe.Dim)) }

// frameRTT times a framed echo of one size-byte message over a fresh
// loopback TCP connection and returns the median round trip.
func frameRTT(ctx context.Context, size, reps int) (time.Duration, error) {
	if size < 1 {
		size = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		t := transport.NewConn(c)
		for {
			msg, err := t.Recv(ctx)
			if err != nil {
				done <- nil // the client hung up
				return
			}
			if err := t.Send(ctx, msg); err != nil {
				done <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	t := transport.NewConn(c)
	msg := make([]byte, size)
	msg[0] = 0x7f
	echo := func() error {
		if err := t.Send(ctx, msg); err != nil {
			return err
		}
		got, err := t.Recv(ctx)
		if err == nil && len(got) != size {
			err = fmt.Errorf("echo returned %d bytes, sent %d", len(got), size)
		}
		return err
	}
	for i := 0; i < reps/10; i++ { // warm the connection and buffers
		if err := echo(); err != nil {
			c.Close()
			<-done
			return 0, err
		}
	}
	d, err := medianOf(reps, echo)
	c.Close()
	if serr := <-done; err == nil {
		err = serr
	}
	return d, err
}

// serve starts srv on a loopback listener and returns its address and a
// stop function that shuts it down and waits for Serve to return.
func serve(srv *robustset.Server) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		<-done
	}, nil
}

// traceSink collects the client-side traces of the op in flight.
type traceSink struct{ pending []*robustset.SessionTrace }

func (s *traceSink) add(t *robustset.SessionTrace) { s.pending = append(s.pending, t) }

func (s *traceSink) take() []*robustset.SessionTrace {
	out := s.pending
	s.pending = nil
	return out
}

// probesPerOp is the number of write probes after each op of a
// read-only workload.
const probesPerOp = 2

// writeProber times in-memory primary write acks while the loop is off
// the clock; spread over the loop, the probes see the same machine as
// the ops. They go to a 2000-point dataset published for them that no
// op fetches, since a write invalidates the sketch blob and moves the
// range tree a dataset's next fetch uses. Each probe is AddBatch of 8
// fresh points, then RemoveBatch of the same 8, which leaves the
// dataset as it was.
type writeProber struct {
	seed uint64
	r    *rand.Rand
	d    *robustset.Dataset
	lat  []time.Duration
}

func newWriteProber(seed uint64) *writeProber {
	return &writeProber{seed: seed, r: rng(seed, 7_000_000)}
}

// probe times probesPerOp writes. Its first call publishes the probe
// dataset on srv and makes two untimed writes.
func (p *writeProber) probe(srv *robustset.Server) error {
	warm := 0
	if p.d == nil {
		r := rng(p.seed, 9)
		params := robustset.Params{Universe: universe, Seed: r.Uint64(), DiffBudget: 20}
		d, err := srv.Publish("write-probe", params, uniformPoints(r, 2000))
		if err != nil {
			return err
		}
		p.d, warm = d, 2
	}
	for k := 0; k < warm+probesPerOp; k++ {
		batch := uniformPoints(p.r, 8)
		t0 := time.Now()
		if err := p.d.AddBatch(batch); err != nil {
			return err
		}
		if err := p.d.RemoveBatch(batch); err != nil {
			return err
		}
		if k >= warm {
			p.lat = append(p.lat, time.Since(t0))
		}
	}
	return nil
}
