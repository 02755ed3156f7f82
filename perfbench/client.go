package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// newClient returns an HTTP client with one keep-alive connection per
// closed-loop client.
func newClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// runSlice runs the closed loop of one phase slice: each client walks its
// request list from where its previous slice stopped (next), so every slice
// continues the same cyclic request stream. A slice runs for its share and,
// if the clients have not yet collected minSamples answers by then, until
// they have or until four times the share has passed.
func runSlice(client *http.Client, front string, lists [clients][]*request, route string, share time.Duration, minSamples int, next *[clients]int, tr *tracer) phaseResult {
	start := time.Now()
	soft, hard := start.Add(share), start.Add(4*share)
	var done atomic.Int64
	var wg sync.WaitGroup
	per := make([]phaseResult, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &per[c]
			for ; ; next[c]++ {
				now := time.Now()
				if now.After(hard) || (now.After(soft) && done.Load() >= int64(minSamples)) {
					return
				}
				q := lists[c][next[c]%len(lists[c])]
				lat, n, err := send(client, front, q, route, tr)
				out.requests++
				out.reqBytes += int64(len(q.body))
				out.respBytes += int64(n)
				if err != nil {
					out.failures = append(out.failures, route+": "+err.Error())
					continue
				}
				out.items += int64(q.items)
				out.lat = append(out.lat, float64(lat)/1e6)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	var res phaseResult
	for _, o := range per {
		res.add(o)
	}
	res.elapsed = time.Since(start)
	res.slices = [][]float64{res.lat}
	res.rates = []float64{float64(res.items) / res.elapsed.Seconds()}
	return res
}

// send sends one request and checks the answer byte for byte; it returns the
// latency and the response size. route names the client span.
func send(client *http.Client, front string, q *request, route string, tr *tracer) (time.Duration, int, error) {
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method, front+q.path, body)
	if err != nil {
		return 0, 0, err
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	s := tr.begin("client."+route, spanCtx{})
	if tr != nil {
		s.Req = s.ID
		req.Header.Set(headerParent, fmt.Sprint(s.ID))
		req.Header.Set(headerRequest, fmt.Sprint(s.ID))
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	got, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	lat := time.Since(start)
	tr.finish(s)
	switch {
	case err != nil:
		return lat, len(got), err
	case resp.StatusCode != http.StatusOK:
		return lat, len(got), fmt.Errorf("%s %s: status %d: %s", q.method, q.path, resp.StatusCode, got)
	case !bytes.Equal(got, q.want):
		return lat, len(got), fmt.Errorf("%s %s: body %q, want %q", q.method, q.path, got, q.want)
	}
	return lat, len(got), nil
}
