package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Sample is one request as the client saw it.
type Sample struct {
	Req    Request
	Sched  time.Time // open loop: when the request was due; closed loop: Sent
	Sent   time.Time
	Done   time.Time
	Status int // 0 when the request failed without a response
	Body   []byte
	Timing string // Server-Timing header (traced servers only)
	Err    error
	// Correct is set once the answer passed the Checker.
	Correct bool
}

// ok reports whether the request got a complete 200 response.
func (s *Sample) ok() bool { return s.Err == nil && s.Status == 200 }

// Latency is the request's latency from its scheduled send time.
func (s *Sample) Latency() time.Duration { return s.Done.Sub(s.Sched) }

// Lag is how late the generator sent the request.
func (s *Sample) Lag() time.Duration { return s.Sent.Sub(s.Sched) }

// Phase is one timed stretch of traffic, or several merged.
type Phase struct {
	Samples []*Sample
	Dur     time.Duration // from the start to the last completion
}

func (p *Phase) Seconds() float64 { return p.Dur.Seconds() }

// merge appends q's samples and time to p.
func (p *Phase) merge(q *Phase) {
	p.Samples = append(p.Samples, q.Samples...)
	p.Dur += q.Dur
}

// newLoadClient returns an HTTP client that opens at most conns
// connections to the server, so no more than conns requests are ever in
// flight from this process.
func newLoadClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func send(ctx context.Context, c *http.Client, base, tag string, s *Sample) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+s.Req.Path, bytes.NewReader(s.Req.Body))
	if err != nil {
		s.Err = err
		s.Done = time.Now()
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", fmt.Sprintf("%s-%d", tag, s.Req.Index))
	s.Sent = time.Now()
	if s.Sched.IsZero() {
		s.Sched = s.Sent
	}
	resp, err := c.Do(req)
	if err != nil {
		s.Err = err
		s.Done = time.Now()
		return
	}
	s.Body, s.Err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Done = time.Now()
	s.Status = resp.StatusCode
	s.Timing = resp.Header.Get("Server-Timing")
}

// feed hands out a generator's requests in index order to concurrent
// senders.
type feed struct {
	mu  sync.Mutex
	gen *Generator
	out []*Sample
}

func (f *feed) next() *Sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &Sample{Req: f.gen.Next()}
	f.out = append(f.out, s)
	return s
}

func (f *feed) phase(start time.Time) *Phase {
	p := &Phase{Samples: f.out}
	sort.Slice(p.Samples, func(i, j int) bool { return p.Samples[i].Req.Index < p.Samples[j].Req.Index })
	for _, s := range p.Samples {
		p.Dur = max(p.Dur, s.Done.Sub(start))
	}
	return p
}

// runClosed drives clients callers, each sending its next request as soon
// as the previous one is answered, until dur has passed. Requests started
// before the deadline run to completion.
func runClosed(ctx context.Context, c *http.Client, base, tag string, gen *Generator, clients int, dur time.Duration) *Phase {
	f := &feed{gen: gen}
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) && ctx.Err() == nil {
				send(ctx, c, base, tag, f.next())
			}
		}()
	}
	wg.Wait()
	return f.phase(start)
}

// runOpen sends requests at Poisson arrival times for dur through at most
// senders concurrent requests. A request whose sender is still busy when
// it falls due goes out late; its latency still counts from the due time,
// so a stall is charged to every request it delays. Go's timers wake
// through epoll, whose timeout is whole milliseconds, so even an idle
// sender goes out up to about a millisecond late; the report prints that
// lag beside the latency it is part of.
func runOpen(ctx context.Context, c *http.Client, base, tag string, gen *Generator, arrivals []float64, senders int, dur time.Duration) (*Phase, error) {
	f := &feed{gen: gen}
	start := time.Now()
	var (
		mu   sync.Mutex
		next int
		err  error
	)
	due := func() (*Sample, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == len(arrivals) {
			err = fmt.Errorf("open loop ran past its %d precomputed arrivals", len(arrivals))
			return nil, false
		}
		at := start.Add(time.Duration(arrivals[next] * float64(time.Second)))
		if at.Sub(start) >= dur {
			return nil, false
		}
		next++
		s := f.next()
		s.Sched = at
		return s, true
	}
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				s, ok := due()
				if !ok {
					return
				}
				if d := time.Until(s.Sched); d > 0 {
					time.Sleep(d)
				}
				send(ctx, c, base, tag, s)
			}
		}()
	}
	wg.Wait()
	return f.phase(start), err
}
