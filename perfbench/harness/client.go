package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"plum/perfbench/internal/body"
)

// request is one POST /run the script sends.
type request struct {
	label string // scenario or world name, for reports
	body  string
	rows  int // epochs the response must carry
}

// reply is what came back, with client-side timings from the POST.
type reply struct {
	req      request
	phase    string
	status   int
	digest   string // X-Plum-Digest
	cache    string // X-Plum-Cache: miss, singleflight, or hit
	body     []byte
	sent     time.Time
	firstRow time.Duration // to the first complete line
	end      time.Duration // to the end of the body
	err      error

	parsed *body.Parsed // set when the body passed the checker
	bad    bool         // some output check failed
}

// newClient allows at most two connections: the benchmark's load.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

func post(ctx context.Context, c *http.Client, base string, rq request, phase string) *reply {
	r := &reply{req: rq, phase: phase}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", strings.NewReader(rq.body))
	if err != nil {
		r.err = err
		return r
	}
	hreq.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	r.sent = t0
	resp, err := c.Do(hreq)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	r.digest = resp.Header.Get("X-Plum-Digest")
	r.cache = resp.Header.Get("X-Plum-Cache")
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	r.firstRow = time.Since(t0)
	r.body = first
	if err == nil {
		var rest []byte
		rest, err = io.ReadAll(br)
		r.body = append(r.body, rest...)
	}
	r.end = time.Since(t0)
	if err != nil && err != io.EOF {
		r.err = err
	}
	return r
}

// runClients runs one closed-loop client per list, each sending its
// requests in order, and returns every reply.
func runClients(ctx context.Context, c *http.Client, base, phase string, lists ...[]request) []*reply {
	out := make([][]*reply, len(lists))
	var wg sync.WaitGroup
	for i, list := range lists {
		wg.Add(1)
		go func(i int, list []request) {
			defer wg.Done()
			for _, rq := range list {
				if ctx.Err() != nil {
					return
				}
				out[i] = append(out[i], post(ctx, c, base, rq, phase))
			}
		}(i, list)
	}
	wg.Wait()
	var all []*reply
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}
