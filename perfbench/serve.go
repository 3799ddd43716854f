package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fafnir"
	"fafnir/internal/cache"
	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/rnet"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

// The serve-fleet deployment and its request stream.
const (
	serveShards  = 4
	serveRows    = 1 << 20
	serveDim     = 128
	serveClients = 2 // closed-loop clients, one per vCPU of the reference host
	// Each request belongs to one of serveUsers users. A user's queries
	// draw serveQuerySize indices from a Zipf(serveZipfS) hot set over
	// serveHotRows rows, rotated to a user-specific region of the row space.
	serveUsers     = 64
	serveHotRows   = 1 << 13
	serveQuerySize = 8
	serveZipfS     = 1.3
	serveMaxQ      = 4 // queries per request: 1 to serveMaxQ
	// The warm-up prefix, 1/serveWarmDiv of the op count, fills the cache
	// untimed. The cache budget is 1/serveCacheDiv of the timed stream's
	// working set (distinct rows x 512 B), so the cache both hits and misses.
	serveWarmDiv  = 8
	serveCacheDiv = 4
	// serveDebugEvery is the stride of the traced pass's ?debug=trace
	// requests, whose breakdowns give the queue wait.
	serveDebugEvery = 16
	// serveProbeLane is the trace lane of the per-request layer probes.
	serveProbeLane = 10
)

type serveRequest struct {
	op      tensor.ReduceOp
	queries [][]uint64
	body    []byte
}

// serveFleet is an in-process HTTP listener on loopback over a 4-shard fleet
// with a radix-2 rnet tree and the hot-embedding cache, driven by
// serveClients closed-loop clients over a fixed, seeded request stream. An
// op is one request; a query is one pooled query.
type serveFleet struct {
	pid        int
	seed       int64
	ops        int
	warm       []serveRequest
	reqs       []serveRequest
	cacheBytes int64
	ref        *reference
	inst       *serveInstance
	client     *http.Client

	traced serveCounts
}

// serveCounts are what a traced pass records for the per-layer metrics.
type serveCounts struct {
	delta   map[string]float64 // /metrics counter deltas over the pass
	queueUS []float64          // breakdown queue wall time of debug requests
}

// serveDetail is what the checks need from a pass.
type serveDetail struct {
	status   []int // per request: HTTP status, 0 on a transport error
	degraded []bool
	meanBad  []int
	sent     int                // queries the clients sent
	delta    map[string]float64 // /metrics counter deltas over the pass
	total    float64            // the server's queries counter after the pass
	warmQ    int                // queries of the warm-up prefix
}

// serveInstance is one running fleet, server and loopback listener.
type serveInstance struct {
	srv    *fafnir.Server
	hs     *http.Server
	url    string
	served chan error
}

func (w *serveFleet) setup(seed int64, ops int, rec *recorder) error {
	w.seed, w.ops = seed, ops
	s := rec.open("setup", w.pid, 0, -1)
	defer s.close()
	g := s.child("embedding.Generator.Query")
	all, err := serveStream(seed, ops/serveWarmDiv+ops)
	g.close()
	if err != nil {
		return err
	}
	w.warm, w.reqs = all[:ops/serveWarmDiv], all[ops/serveWarmDiv:]
	ws := map[uint64]struct{}{}
	for _, r := range w.reqs {
		for _, q := range r.queries {
			for _, idx := range q {
				ws[idx] = struct{}{}
			}
		}
	}
	w.cacheBytes = int64(len(ws)) * serveDim * 4 / serveCacheDiv
	if w.ref, err = newReference(serveRows, serveDim, seed); err != nil {
		return err
	}
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	return w.build(s)
}

// serveStream draws n requests: user, query count and indices from one
// seeded source, each user's indices from its own embedding generator.
func serveStream(seed int64, n int) ([]serveRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	gens := make([]*embedding.Generator, serveUsers)
	offs := make([]uint64, serveUsers)
	for u := range gens {
		g, err := embedding.NewGenerator(embedding.GeneratorConfig{
			NumQueries: 1, QuerySize: serveQuerySize, Rows: serveHotRows,
			Dist: embedding.Zipf, ZipfS: serveZipfS, Seed: seed*1_000_003 + int64(u),
		})
		if err != nil {
			return nil, err
		}
		gens[u] = g
		offs[u] = mix64(uint64(seed)<<16^uint64(u)) % serveRows
	}
	reqs := make([]serveRequest, n)
	for i := range reqs {
		u := rng.Intn(serveUsers)
		r := serveRequest{op: reduceOps[i%len(reduceOps)], queries: make([][]uint64, 1+rng.Intn(serveMaxQ))}
		for qi := range r.queries {
			q := gens[u].Query()
			idx := make([]uint64, len(q.Indices))
			for k, v := range q.Indices {
				idx[k] = (uint64(v) + offs[u]) % serveRows
			}
			r.queries[qi] = idx
		}
		body, err := json.Marshal(serve.LookupRequest{Queries: r.queries, Op: r.op.String()})
		if err != nil {
			return nil, err
		}
		r.body = body
		reqs[i] = r
	}
	return reqs, nil
}

func (w *serveFleet) fresh(rec *recorder) error {
	s := rec.open("setup", w.pid, 0, -1)
	defer s.close()
	if err := w.inst.stop(); err != nil {
		return err
	}
	w.inst = nil
	return w.build(s)
}

func (w *serveFleet) newFleet() (*fafnir.Fleet, error) {
	return fafnir.NewFleet(fafnir.FleetConfig{
		Shards: serveShards, Rows: serveRows, Seed: w.seed, Rnet: fafnir.RnetConfig{Radix: 2},
	})
}

func (w *serveFleet) serveConfig() fafnir.ServeConfig {
	return fafnir.ServeConfig{CacheBytes: w.cacheBytes, CacheSeed: uint64(w.seed)}
}

// build starts a fleet, server and loopback listener, and sends the
// warm-up prefix through them.
func (w *serveFleet) build(s *openSpan) error {
	b := s.child("fafnir.NewFleetServer")
	fleet, err := w.newFleet()
	if err != nil {
		b.close()
		return err
	}
	srv, err := fafnir.NewFleetServer(fleet, w.serveConfig())
	if err != nil {
		b.close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return err
	}
	in := &serveInstance{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { in.served <- in.hs.Serve(ln) }()
	w.inst = in
	b.close()

	wu := s.child("warm-up")
	defer wu.close()
	var failed atomic.Int64
	w.drive(len(w.warm), func(_, i int) {
		if resp, status, err := w.send(&w.warm[i], false); err != nil || status != http.StatusOK || resp.Degraded != nil {
			failed.Add(1)
		}
	})
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", n, len(w.warm))
	}
	return nil
}

// stop shuts the listener, drains the server and waits for Serve to return.
func (in *serveInstance) stop() error {
	if in == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if derr := in.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-in.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// drive runs serveClients closed-loop clients over requests 0..n-1: each
// client takes the next unsent request as soon as its previous one is done.
func (w *serveFleet) drive(n int, do func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// send posts one request and decodes the response.
func (w *serveFleet) send(r *serveRequest, debug bool) (*serve.LookupResponse, int, error) {
	url := w.inst.url + "/v1/lookup"
	if debug {
		url += "?debug=trace"
	}
	resp, err := w.client.Post(url, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var lr serve.LookupResponse
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&lr)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	return &lr, resp.StatusCode, err
}

// scrape reads the server's unlabelled /metrics samples.
func (w *serveFleet) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.inst.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func (w *serveFleet) pass(rec *recorder) (*passResult, error) {
	p := newPass(w.ops)
	d := &serveDetail{status: make([]int, w.ops), degraded: make([]bool, w.ops)}
	p.detail = d
	for _, r := range w.warm {
		d.warmQ += len(r.queries)
	}
	var twin *serve.Coalescer
	if rec != nil {
		fleet, err := w.newFleet()
		if err != nil {
			return nil, err
		}
		if twin, err = serve.NewCoalescer(w.serveConfig(), fleet, serve.NewMetrics()); err != nil {
			return nil, err
		}
		w.traced = serveCounts{}
	}
	before, err := w.scrape()
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		meanBad []int
		queueUS []float64
	)
	var failed atomic.Int64
	w.drive(w.ops, func(c, i int) {
		r := &w.reqs[i]
		debug := rec != nil && i%serveDebugEvery == 0
		op := rec.open("op", w.pid, c, int64(i))
		name := "serve.http"
		if debug {
			name = "serve.http.debug"
		}
		call := op.child(name)
		t := time.Now()
		resp, status, err := w.send(r, debug)
		p.lat[i] = time.Since(t)
		call.close()
		d.status[i] = status
		if err != nil || status != http.StatusOK || resp.Degraded != nil || len(resp.Outputs) != len(r.queries) {
			d.degraded[i] = err == nil && status == http.StatusOK && resp.Degraded != nil
			failed.Add(1)
			op.close()
			return
		}
		h, ok := uint64(i), true
		for q, out := range resp.Outputs {
			var good bool
			h, good = foldOutput(h, r.op, len(r.queries[q]), out)
			ok = ok && good
		}
		p.digests[i] = h
		if twin != nil {
			s := op.child("serve.Coalescer.Submit")
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_, _, err := twin.Submit(ctx, r.op, engineQueries(r.queries))
			cancel()
			s.close()
			if err != nil {
				ok = false
			}
		}
		if !ok || debug && resp.Breakdown != nil {
			mu.Lock()
			if !ok {
				meanBad = append(meanBad, i)
			}
			if debug && resp.Breakdown != nil {
				queueUS = append(queueUS, resp.Breakdown.Queue.WallUS)
			}
			mu.Unlock()
		}
		op.close()
	})
	after, err := w.scrape()
	if err != nil {
		return nil, err
	}
	if twin != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := twin.Close(ctx)
		cancel()
		if err != nil {
			return nil, err
		}
	}
	p.failed = int(failed.Load())
	d.meanBad = meanBad
	d.delta = map[string]float64{}
	for k, v := range after {
		d.delta[k] = v - before[k]
	}
	d.total = after["fafnir_serve_queries_total"]
	for _, r := range w.reqs {
		d.sent += len(r.queries)
	}
	p.queries = d.sent
	p.cycles = d.delta["fafnir_serve_sim_cycles_total"]
	p.reads = d.delta["fafnir_serve_dram_reads_total"]
	if rec != nil {
		w.traced.delta = d.delta
		w.traced.queueUS = queueUS
	}
	return p, nil
}

func engineQueries(qs [][]uint64) []embedding.Query {
	out := make([]embedding.Query, len(qs))
	for i, q := range qs {
		idx := make([]header.Index, len(q))
		for k, v := range q {
			idx[k] = header.Index(v)
		}
		out[i] = embedding.Query{Indices: header.NewIndexSet(idx...)}
	}
	return out
}

func (w *serveFleet) verify(p *passResult) []check {
	d := p.detail.(*serveDetail)
	var status, outs errList
	for i, r := range w.reqs {
		switch {
		case d.status[i] != http.StatusOK:
			status.add("request %d: status %d", i, d.status[i])
			continue
		case d.degraded[i]:
			status.add("request %d: degraded", i)
			continue
		case p.digests[i] == 0:
			status.add("request %d: unreadable response", i)
			continue
		}
		h := uint64(i)
		for _, q := range engineQueries(r.queries) {
			var err error
			if h, err = w.ref.fold(h, r.op, q.Indices); err != nil {
				outs.add("request %d: %v", i, err)
				break
			}
		}
		if h != p.digests[i] {
			outs.add("request %d (%s) differs from the reference reduction", i, r.op)
		}
	}
	for _, i := range d.meanBad {
		outs.add("request %d: a mean output is off tolerance, or the twin Submit failed", i)
	}
	var counter error
	if got := d.delta["fafnir_serve_queries_total"]; got != float64(d.sent) || d.total != float64(d.sent+d.warmQ) {
		counter = fmt.Errorf("/metrics counted %v queries in the pass (%v in all), the clients sent %d (%d with the warm-up)",
			got, d.total, d.sent, d.sent+d.warmQ)
	}
	return []check{
		{"serve-fleet every response is 200 and not degraded", status.err()},
		{"serve-fleet outputs equal the reference reduction", outs.err()},
		{"serve-fleet /metrics queries counter equals the queries sent", counter},
	}
}

// layers probes, request by request on the traced pass's stream, the layers
// the server reaches internally: a fleet Lookup, an rnet reduction of
// per-shard partial pools, and cache lookups on a cache of the server's
// per-shard budget. It reads the rest from the traced pass's /metrics deltas.
func (w *serveFleet) layers(rec *recorder, p *passResult) (map[string]float64, error) {
	fleet, err := w.newFleet()
	if err != nil {
		return nil, err
	}
	tree, err := rnet.NewTree(serveShards, rnet.Config{Radix: 2})
	if err != nil {
		return nil, err
	}
	caches := make([]*cache.Cache, serveShards)
	for s := range caches {
		if caches[s], err = cache.New(cache.Config{Bytes: w.cacheBytes / serveShards, Dim: serveDim, Seed: uint64(w.seed)}); err != nil {
			return nil, err
		}
	}
	load := make([]int, serveShards)
	var gets int
	var critical float64
	row := make([]float32, serveDim)
	for i, r := range w.reqs {
		qs := engineQueries(r.queries)
		op := rec.open("probe", w.pid, serveProbeLane, int64(i))

		s := op.child("router.Fleet.Lookup")
		_, err := fleet.Lookup(embedding.Batch{Queries: qs, Op: r.op})
		s.close()
		if err != nil {
			op.close()
			return nil, err
		}

		leaves := make([]*rnet.Partial, serveShards)
		for qi, q := range qs {
			for _, idx := range q.Indices {
				sh := fleet.OwnerOf(idx)
				load[sh]++
				if leaves[sh] == nil {
					leaves[sh] = &rnet.Partial{Vectors: make([]tensor.Vector, len(qs))}
				}
				v, err := w.ref.store.Vector(idx)
				if err != nil {
					op.close()
					return nil, err
				}
				if acc := leaves[sh].Vectors[qi]; acc == nil {
					leaves[sh].Vectors[qi] = v
				} else if err := r.op.Apply(acc, v); err != nil {
					op.close()
					return nil, err
				}
			}
		}
		s = op.child("rnet.Tree.Reduce")
		res, err := tree.Reduce(r.op, len(qs), leaves)
		s.close()
		if err != nil {
			op.close()
			return nil, err
		}
		critical += float64(res.CriticalPath)

		var misses []cache.Key
		s = op.child("cache.Cache.Get")
		for _, q := range qs {
			for _, idx := range q.Indices {
				k := cache.Key{Table: uint32(fleet.OwnerOf(idx)), Op: uint8(r.op), Index: idx}
				if _, hit := caches[k.Table].Get(k); !hit {
					misses = append(misses, k)
				}
				gets++
			}
		}
		s.close()
		for _, k := range misses {
			if err := w.ref.store.VectorInto(k.Index, row); err != nil {
				op.close()
				return nil, err
			}
			if err := caches[k.Table].Put(k, append(tensor.Vector(nil), row...)); err != nil {
				op.close()
				return nil, err
			}
		}
		op.close()
	}

	c := w.traced
	maxLoad, total := 0, 0
	for _, n := range load {
		maxLoad = max(maxLoad, n)
		total += n
	}
	hits, misses := c.delta["fafnir_cache_hits_total"], c.delta["fafnir_cache_misses_total"]
	rtt := rec.durations(w.pid, "serve.http")
	queue := make([]time.Duration, len(c.queueUS))
	for i, v := range c.queueUS {
		queue[i] = time.Duration(v * float64(time.Microsecond))
	}
	if len(rtt) == 0 || len(queue) == 0 || c.delta["fafnir_serve_batches_total"] == 0 || hits+misses == 0 {
		return nil, fmt.Errorf("traced pass recorded no requests, breakdowns, batches or cache lookups")
	}
	return map[string]float64{
		"serve.http_us":             us(median(rtt)),
		"serve.submit_us":           us(median(rec.durations(w.pid, "serve.Coalescer.Submit"))),
		"serve.queries_per_batch":   c.delta["fafnir_serve_queries_total"] / c.delta["fafnir_serve_batches_total"],
		"serve.queue_us_p50":        us(median(queue)),
		"cache.hit_ratio":           hits / (hits + misses),
		"cache.get_ns":              float64(sum(rec.durations(w.pid, "cache.Cache.Get"))) / float64(gets),
		"router.fleet_lookup_us":    us(median(rec.durations(w.pid, "router.Fleet.Lookup"))),
		"router.shard_imbalance":    float64(maxLoad) / (float64(total) / serveShards),
		"rnet.reduce_us":            us(median(rec.durations(w.pid, "rnet.Tree.Reduce"))),
		"rnet.critical_path_cycles": critical / float64(len(w.reqs)),
	}, nil
}

func (w *serveFleet) close() {
	if err := w.inst.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "serve-fleet: stop:", err)
	}
	w.inst = nil
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
