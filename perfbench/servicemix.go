package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/server"
)

// serviceClients is the closed loop's client count, one per vCPU of the
// 2-vCPU reference host.
const serviceClients = 2

// serviceSnapshot is the name NET1 is loaded under.
const serviceSnapshot = "net1"

// runServiceMix is Batfish as a shared service (paper §3): the batfishd
// engine behind a loopback listener with NET1 loaded, and a closed loop
// of serviceClients clients, each sending its seeded request sequence
// and the next request only after the previous answer. An operation is
// one client request, a read (reachability or service-reachable) or a
// write (edit-as, compare, delete); a round is the whole session, and
// each client sends six requests per second of --seconds.
func runServiceMix(r *runner) error {
	perClient := 6 * r.seconds
	type input struct {
		env   *serviceEnv
		texts map[string]string
		first request
		seqs  [][]request
	}
	in, err := setupRepeated(r, func() (input, func(), error) {
		texts, hosts, err := catalogTexts("NET1", "Vlan")
		if err != nil {
			return input{}, nil, err
		}
		u, err := newServiceUniverse(texts, hosts)
		if err != nil {
			return input{}, nil, err
		}
		env, err := startService(texts, u.reach[0])
		if err != nil {
			return input{}, nil, err
		}
		return input{env, texts, u.reach[0], serviceSequences(u, serviceClients, perClient, r.seed)}, env.close, nil
	})
	if err != nil {
		return err
	}
	defer func() { in.env.close() }()
	share, reads := measuredRepeatShare(in.seqs)
	if r.traced {
		var out svcOut
		var m server.Metrics
		err := r.tracedPair(func(tr *tracer) (time.Duration, error) {
			o := serviceSession(r, tr, in.env, in.seqs)
			if tr.on {
				out, m = o, in.env.srv.Metrics()
			}
			return o.wall, nil
		}, func() error {
			// A fresh server finds no answer the first pass memoized.
			in.env.close()
			release()
			env, err := startService(in.texts, in.first)
			if err == nil {
				in.env = env
			}
			return err
		})
		if err != nil {
			return err
		}
		r.setLayerTimes()
		r.set("server.p50_ms", m.P50Ms, "ms")
		r.set("server.p99_ms", m.P99Ms, "ms")
		r.set("server.shed", float64(m.Shed429+m.Shed503), "count")
		r.set("server.retries", float64(m.Retries), "count")
		r.set("server.peak_queued", float64(m.PeakQueued), "count")
		r.set("service.reads", float64(len(out.reads)), "count")
		r.set("service.read_p50_ms", percentile(out.reads, 0.5), "ms")
		r.set("service.read_p90_ms", percentile(out.reads, 0.9), "ms")
		r.set("service.writes", float64(len(out.writes)), "count")
		r.set("service.write_p50_ms", percentile(out.writes, 0.5), "ms")
		r.set("service.throughput_rps", float64(len(out.reads)+len(out.writes))/out.wall.Seconds(), "1/s")
		r.set("service.repeat_share", share, "ratio")
		r.setPipeline(out.plBefore, m.Pipeline)
		r.note("server window: %d requests; repeat share over %d generated reads", m.Requests, reads)
		return nil
	}
	out := serviceSession(r, r.tr, in.env, in.seqs)
	if err := r.setOps([]float64{out.wall.Seconds()}, append(out.reads, out.writes...), "requests"); err != nil {
		return err
	}
	r.note("%d reads: p50 %.1f ms, p90 %.1f ms; %d writes: p50 %.1f ms; %.3f of the reads repeat",
		len(out.reads), percentile(out.reads, 0.5), percentile(out.reads, 0.9),
		len(out.writes), percentile(out.writes, 0.5), share)
	return r.setPeakRSS()
}

// serviceEnv is one running service: the engine, its HTTP server on a
// loopback port, and a client.
type serviceEnv struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	closed bool
}

// startService starts the engine, loads texts as serviceSnapshot and
// asks first, the set-up's first question.
func startService(texts map[string]string, first request) (*serviceEnv, error) {
	srv, err := server.New(server.Config{Seed: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	env := &serviceEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}},
	}
	go func() { env.served <- env.hs.Serve(ln) }()
	body, err := json.Marshal(map[string]any{"configs": texts})
	if err != nil {
		env.close()
		return nil, err
	}
	if _, err := env.call(http.MethodPut, "/snapshots/"+serviceSnapshot, body); err != nil {
		env.close()
		return nil, fmt.Errorf("load %s: %w", serviceSnapshot, err)
	}
	if _, err := env.call(http.MethodGet, first.path(), nil); err != nil {
		env.close()
		return nil, fmt.Errorf("first question: %w", err)
	}
	return env, nil
}

// close stops the HTTP server and waits for it to exit.
func (e *serviceEnv) close() {
	if e.closed {
		return
	}
	e.closed = true
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.served
}

// apiAnswer is the part of the service's JSON envelope the benchmark
// checks.
type apiAnswer struct {
	ExitCode int    `json:"exit_code"`
	Error    string `json:"error"`
	Text     string `json:"text"`
}

// call sends one request and returns the answer; a non-200 status or a
// non-zero exit code (shed, degraded, error) is an error.
func (e *serviceEnv) call(method, path string, body []byte) (apiAnswer, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return apiAnswer{}, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return apiAnswer{}, err
	}
	defer resp.Body.Close()
	var a apiAnswer
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		return apiAnswer{}, fmt.Errorf("%s %s: status %d, decode: %w", method, path, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || a.ExitCode != server.ExitOK {
		return a, fmt.Errorf("%s %s: status %d exit %d: %s", method, path, resp.StatusCode, a.ExitCode, a.Error)
	}
	return a, nil
}

// path is a read request's URL path and query.
func (q request) path() string {
	return "/snapshots/" + serviceSnapshot + "/" + q.Kind + "?" + q.Query
}

// do performs one client operation: a read, or a write's edit-as,
// compare and delete. It returns the answer text to digest.
func (e *serviceEnv) do(tr *tracer, parent int, q request, as string) (string, error) {
	if q.Kind != reqWrite {
		var a apiAnswer
		var err error
		tr.time(q.Kind, parent, func() { a, err = e.call(http.MethodGet, q.path(), nil) })
		return a.Text, err
	}
	body, err := json.Marshal(map[string]any{"as": as, "changes": map[string]string{q.Edit.Device: q.Edit.Text}})
	if err != nil {
		return "", err
	}
	var a apiAnswer
	tr.time("edit", parent, func() { _, err = e.call(http.MethodPost, "/snapshots/"+serviceSnapshot+"/edit", body) })
	if err != nil {
		return "", err
	}
	tr.time("compare", parent, func() {
		a, err = e.call(http.MethodGet, "/snapshots/"+serviceSnapshot+"/compare?"+url.Values{"with": {as}}.Encode(), nil)
	})
	var derr error
	tr.time("delete", parent, func() { _, derr = e.call(http.MethodDelete, "/snapshots/"+as, nil) })
	return a.Text, errors.Join(err, derr)
}

type svcOut struct {
	wall     time.Duration
	reads    []float64 // read latencies, ms
	writes   []float64 // write latencies (edit + compare + delete), ms
	plBefore pipeline.Stats
}

// opResult is one completed client operation.
type opResult struct {
	q    request
	text string
	err  error
	lat  time.Duration
}

// serviceSession runs every client's sequence concurrently and then
// checks each answer against its recorded digest.
func serviceSession(r *runner, tr *tracer, env *serviceEnv, seqs [][]request) svcOut {
	out := svcOut{plBefore: env.srv.Pipeline().Stats()}
	tr.newRun()
	root := tr.begin("round", -1)
	start := time.Now()
	done := make([][]opResult, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range seqs[c] {
				t0 := time.Now()
				text, err := env.do(tr, root, q, fmt.Sprintf("c%d-w%d", c, i))
				done[c] = append(done[c], opResult{q: q, text: text, err: err, lat: time.Since(t0)})
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(start)
	tr.end(root)

	for _, ops := range done {
		for _, op := range ops {
			r.attempted++
			if op.q.Kind == reqWrite {
				out.writes = append(out.writes, ms(op.lat))
			} else {
				out.reads = append(out.reads, ms(op.lat))
			}
			if op.err != nil {
				r.fail("service-mix: %v", op.err)
				continue
			}
			r.checkDigest("service-mix", op.q.key(), op.text)
		}
	}
	return out
}
