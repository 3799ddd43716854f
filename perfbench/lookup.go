package main

import (
	"fmt"
	"time"

	"fafnir"
	"fafnir/internal/batch"
	"fafnir/internal/dram"
	"fafnir/internal/embedding"
	core "fafnir/internal/fafnir"
	"fafnir/internal/memmap"
)

// The lookup-zipf geometry is the paper's: 32 ranks of 32 tables x 128 Ki
// rows of 512 B vectors, 32-query batches of 16 Zipf(1.3) indices.
const (
	lookupRowsPerTable = 1 << 17
	lookupRows         = 32 * lookupRowsPerTable
	lookupDim          = 128
	lookupBatch        = 32
	lookupQuerySize    = 16
	lookupZipfS        = 1.3
	// lookupWarmup batches run untimed before the first timed op.
	lookupWarmup = 16
)

// lookupZipf is a closed loop of System.Lookup at default Parallelism.
// An op is one batch; a query is one pooled query.
type lookupZipf struct {
	pid     int
	seed    int64
	ops     int
	batches []embedding.Batch // lookupWarmup warm-up batches, then one per op
	sys     *fafnir.System
	ref     *reference
	genUS   float64 // generator time per query, from set-up

	// Inner calls of a traced pass run on the benchmark's own engine, layout
	// and DRAM models, configured as the System's.
	eng    *core.Engine
	layout *memmap.Layout
	tmem   *dram.System // for Engine.TimedLookup
	rmem   *dram.System // for the dram.Read probe
	row    []float32
	traced lookupCounts
}

// lookupDetail is what the checks need from a pass.
type lookupDetail struct {
	reads   []int // per op: the batch's simulated DRAM reads, -1 if the op failed
	meanBad []int // ops whose mean outputs were off tolerance
}

// lookupCounts are the counts a traced pass records at layer boundaries.
type lookupCounts struct {
	accesses, naive, rows, dramReads int
	peOutputs, maxOcc, batches       int
	rowHits, rowTotal                uint64
}

func (w *lookupZipf) setup(seed int64, ops int, rec *recorder) error {
	w.seed, w.ops = seed, ops
	s := rec.open("setup", w.pid, 0, -1)
	defer s.close()
	g := s.child("embedding.Generator.Batch")
	t := time.Now()
	gen, err := embedding.NewGenerator(embedding.GeneratorConfig{
		NumQueries: lookupBatch, QuerySize: lookupQuerySize, Rows: lookupRows,
		Dist: embedding.Zipf, ZipfS: lookupZipfS, Seed: seed,
	})
	if err != nil {
		return err
	}
	w.batches = make([]embedding.Batch, lookupWarmup+ops)
	for i := range w.batches {
		w.batches[i] = gen.Batch(reduceOps[i%len(reduceOps)])
	}
	w.genUS = us(time.Since(t)) / float64(len(w.batches)*lookupBatch)
	g.close()
	if w.ref, err = newReference(lookupRows, lookupDim, seed); err != nil {
		return err
	}
	return w.build(s)
}

func (w *lookupZipf) fresh(rec *recorder) error {
	s := rec.open("setup", w.pid, 0, -1)
	defer s.close()
	return w.build(s)
}

// build makes a new System and runs the warm-up batches through it.
func (w *lookupZipf) build(s *openSpan) error {
	b := s.child("fafnir.NewSystem")
	sys, err := fafnir.NewSystem(fafnir.SystemConfig{Seed: w.seed})
	b.close()
	if err != nil {
		return err
	}
	if sys.TotalRows() != lookupRows || sys.Dim() != lookupDim {
		return fmt.Errorf("system has %d rows of %d elements, want %d of %d", sys.TotalRows(), sys.Dim(), lookupRows, lookupDim)
	}
	w.sys = sys
	wu := s.child("warm-up")
	defer wu.close()
	for _, b := range w.batches[:lookupWarmup] {
		if _, err := sys.Lookup(b); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *lookupZipf) pass(rec *recorder) (*passResult, error) {
	p := newPass(w.ops)
	d := &lookupDetail{reads: make([]int, w.ops)}
	p.detail = d
	for i := range d.reads {
		d.reads[i] = -1
	}
	if rec != nil {
		if err := w.prepareInner(); err != nil {
			return nil, err
		}
	}
	for i, b := range w.batches[lookupWarmup:] {
		op := rec.open("op", w.pid, 0, int64(i))
		call := op.child("fafnir.System.Lookup")
		t := time.Now()
		res, err := w.sys.Lookup(b)
		p.lat[i] = time.Since(t)
		call.close()
		if err != nil {
			p.failed++
			op.close()
			continue
		}
		p.queries += len(b.Queries)
		p.cycles += float64(res.TotalCycles)
		p.reads += float64(res.MemoryReads)
		d.reads[i] = res.MemoryReads
		h, ok := uint64(i), true
		for q, out := range res.Outputs {
			var good bool
			h, good = foldOutput(h, b.Op, b.Queries[q].Indices.Len(), out)
			ok = ok && good
		}
		p.digests[i] = h
		if !ok {
			d.meanBad = append(d.meanBad, i)
		}
		if rec != nil {
			if err := w.inner(op, b); err != nil {
				op.close()
				return nil, err
			}
		}
		op.close()
	}
	return p, nil
}

// prepareInner builds the engine, layout and DRAM models the inner calls of
// a traced pass use, with the System's configuration.
func (w *lookupZipf) prepareInner() error {
	cfg := core.Default()
	cfg.NumRanks = 32
	cfg.BatchCapacity = lookupBatch
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return err
	}
	w.eng = eng
	w.layout = memmap.Uniform(dram.DDR4(), 512, 32, lookupRowsPerTable)
	w.tmem = dram.MustSystem(dram.DDR4())
	w.rmem = dram.MustSystem(dram.DDR4())
	w.row = make([]float32, lookupDim)
	w.traced = lookupCounts{}
	w.traced.rowHits, w.traced.rowTotal = w.rowCounters()
	return nil
}

func (w *lookupZipf) rowCounters() (hits, total uint64) {
	hits = w.sys.MemoryCounter("dram.row_hits")
	return hits, hits + w.sys.MemoryCounter("dram.row_misses") + w.sys.MemoryCounter("dram.row_conflicts")
}

// inner calls each layer System.Lookup reaches internally, on the op's batch.
func (w *lookupZipf) inner(op *openSpan, b embedding.Batch) error {
	c := &w.traced
	s := op.child("batch.Build")
	plan := batch.Build(b, true)
	s.close()
	c.accesses += plan.NumAccesses()
	c.naive += plan.TotalAccesses()

	s = op.child("fafnir.Engine.Lookup")
	res, err := w.eng.Lookup(w.ref.store, w.layout, b)
	s.close()
	if err != nil {
		return err
	}
	c.peOutputs += res.PETotals.Outputs
	c.maxOcc = max(c.maxOcc, res.MaxOccupancy)
	c.batches++

	w.tmem.Reset()
	s = op.child("fafnir.Engine.TimedLookup")
	_, err = w.eng.TimedLookup(w.ref.store, w.layout, w.tmem, b, true)
	s.close()
	if err != nil {
		return err
	}

	s = op.child("embedding.Batch.Golden")
	_, err = b.Golden(w.ref.store)
	s.close()
	if err != nil {
		return err
	}

	s = op.child("embedding.Store.VectorInto")
	for _, a := range plan.Accesses {
		if err := w.ref.store.VectorInto(a.Index, w.row); err != nil {
			s.close()
			return err
		}
	}
	s.close()
	c.rows += len(plan.Accesses)

	w.rmem.Reset()
	s = op.child("dram.System.Read")
	for _, a := range plan.Accesses {
		w.rmem.Read(0, w.layout.Addr(a.Index), w.layout.VectorBytes(), dram.DestLocal)
	}
	s.close()
	c.dramReads += len(plan.Accesses)
	return nil
}

func (w *lookupZipf) verify(p *passResult) []check {
	d := p.detail.(*lookupDetail)
	var outs, reads errList
	for i, b := range w.batches[lookupWarmup:] {
		if d.reads[i] < 0 {
			continue // a failed op, counted in failed
		}
		h := uint64(i)
		for _, q := range b.Queries {
			var err error
			if h, err = w.ref.fold(h, b.Op, q.Indices); err != nil {
				outs.add("op %d: %v", i, err)
				break
			}
		}
		if h != p.digests[i] {
			outs.add("op %d (%s) differs from the reference reduction", i, b.Op)
		}
		if want := distinct(b); d.reads[i] != want {
			reads.add("op %d: %d reads, %d distinct indices", i, d.reads[i], want)
		}
	}
	for _, i := range d.meanBad {
		outs.add("op %d: a mean output is more than %d ulps from sum/count", i, meanULPs)
	}
	return []check{
		{"lookup-zipf outputs equal the reference reduction", outs.err()},
		{"lookup-zipf DRAM reads equal distinct indices per batch", reads.err()},
	}
}

func (w *lookupZipf) layers(rec *recorder, p *passResult) (map[string]float64, error) {
	c := w.traced
	if c.batches == 0 || c.rows == 0 {
		return nil, fmt.Errorf("traced pass recorded no batches")
	}
	hits, total := w.rowCounters()
	return map[string]float64{
		"embedding.gen_us_per_query":  w.genUS,
		"embedding.row_ns":            float64(sum(rec.durations(w.pid, "embedding.Store.VectorInto"))) / float64(c.rows),
		"batch.build_us":              us(median(rec.durations(w.pid, "batch.Build"))),
		"batch.unique_ratio":          float64(c.accesses) / float64(c.naive),
		"fafnir.tree_us":              us(median(rec.durations(w.pid, "fafnir.Engine.Lookup"))),
		"fafnir.timed_us":             us(median(rec.durations(w.pid, "fafnir.Engine.TimedLookup"))),
		"fafnir.verify_us":            us(median(rec.durations(w.pid, "embedding.Batch.Golden"))),
		"fafnir.pe_outputs_per_batch": float64(c.peOutputs) / float64(c.batches),
		"fafnir.max_occupancy":        float64(c.maxOcc),
		"dram.read_ns":                float64(sum(rec.durations(w.pid, "dram.System.Read"))) / float64(c.dramReads),
		"dram.row_hit_ratio":          float64(hits-c.rowHits) / float64(max(total-c.rowTotal, 1)),
	}, nil
}

func (w *lookupZipf) close() {}
