package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tally counts every request the harness sends and every one that failed:
// a non-200, a transport error or a wrong answer.
type tally struct {
	attempted, failed atomic.Int64

	mu    sync.Mutex
	first []string // the first few failures, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < 5 {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// client is the load generator's connection pool to one lonad. The
// workloads never run more than two requests at once, so neither does it.
type client struct {
	hc   *http.Client
	base string
	t    *tally
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
		},
	}
}

// post sends one JSON request and returns the 200 body with the time the
// client waited for it. Anything else is tallied as a failure and returns
// a nil body.
func (c *client) post(path string, body []byte) ([]byte, time.Duration) {
	c.t.attempted.Add(1)
	start := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.fail("POST %s: %v", path, err)
		return nil, 0
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		c.t.fail("POST %s: reading body: %v", path, err)
		return nil, 0
	}
	if resp.StatusCode != http.StatusOK {
		c.t.fail("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
		return nil, 0
	}
	return out, dur
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// NaN for no samples, so a missing measurement can never pass as a number.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// calibrate times a fixed arithmetic loop. Taken before and after the
// window, two readings more than a tenth apart mean something else was
// using the machine.
func calibrate() time.Duration {
	start := time.Now()
	x := 1.0
	for i := 0; i < 20_000_000; i++ {
		x = x*1.0000001 + 1e-9
	}
	calibSink = x
	return time.Since(start)
}

var calibSink float64
