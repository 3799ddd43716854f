package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fafnir/internal/dram"
	"fafnir/internal/sparse"
	"fafnir/internal/spmv"
	"fafnir/internal/tensor"
	"fafnir/internal/twostep"
)

// fig14Shape is one of the seven Fig. 14 matrices, as the fig14 exhibit
// builds them; only the generator seeds come from --seed.
type fig14Shape struct {
	name string
	gen  func(seed int64) *sparse.LIL
}

var fig14Shapes = []fig14Shape{
	{"SC-small", func(s int64) *sparse.LIL { return sparse.Banded(2000, 96, s) }},
	{"SC-medium", func(s int64) *sparse.LIL { return sparse.Banded(8000, 64, s) }},
	{"SC-large", func(s int64) *sparse.LIL { return sparse.Banded(32000, 32, s) }},
	{"GR-small", func(s int64) *sparse.LIL { return sparse.PowerLawGraph(2000, 48, s) }},
	{"GR-medium", func(s int64) *sparse.LIL { return sparse.PowerLawGraph(8000, 16, s) }},
	{"GR-large", func(s int64) *sparse.LIL { return sparse.PowerLawGraph(32000, 8, s) }},
	{"RO", func(s int64) *sparse.LIL { return sparse.RandomUniform(32000, 32000, 2e-4, s) }},
}

type fig14Matrix struct {
	name string
	m    *sparse.LIL
	x    tensor.Vector
}

// spmvFig14 multiplies the seven Fig. 14 matrices on the Fafnir SpMV engine
// and on Two-Step, each on a fresh DRAM model as the fig14 exhibit does.
// An op is one pass over all seven on both engines; a query is one output
// row, so an op produces 2 x (sum of rows) queries.
type spmvFig14 struct {
	pid  int
	ops  int
	mats []fig14Matrix
	fe   *spmv.Engine
	te   *twostep.Engine
	genS float64 // matrix generation time, from set-up

	traced spmvCounts
}

// spmvCounts are the counts a traced pass records at layer boundaries.
type spmvCounts struct {
	chunks, chunkAllocs, chunkAllocCalls int
	mergeIters, passes                   int
	streamBytes                          int
}

// spmvDetail is what the checks need from a pass: per op, the digest of
// each matrix's y on each engine (Fafnir first).
type spmvDetail struct {
	y [][]uint64
}

func (w *spmvFig14) setup(seed int64, ops int, rec *recorder) error {
	w.ops = ops
	s := rec.open("setup", w.pid, 0, -1)
	defer s.close()
	t := time.Now()
	w.mats = make([]fig14Matrix, len(fig14Shapes))
	for k, sh := range fig14Shapes {
		g := s.child("sparse.generate")
		m := sh.gen(seed*100 + int64(k) + 1)
		x := sparse.DenseVector(m.Cols, seed*100+int64(k)+51)
		g.close()
		w.mats[k] = fig14Matrix{name: sh.name, m: m, x: x}
		// Collecting between generators makes the peak resident set that of
		// one generator's working memory, not of whenever the concurrent
		// collector happened to finish while several ran.
		runtime.GC()
	}
	w.genS = time.Since(t).Seconds()
	var err error
	if w.fe, err = spmv.NewEngine(spmv.Default()); err != nil {
		return err
	}
	w.te, err = twostep.NewEngine(twostep.Default())
	return err
}

// fresh has nothing to rebuild: every multiply runs on a new DRAM model.
func (w *spmvFig14) fresh(*recorder) error { return nil }

func (w *spmvFig14) pass(rec *recorder) (*passResult, error) {
	p := newPass(w.ops)
	d := &spmvDetail{y: make([][]uint64, w.ops)}
	p.detail = d
	if rec != nil {
		w.traced = spmvCounts{}
	}
	for i := range p.lat {
		op := rec.open("op", w.pid, 0, int64(i))
		var (
			lat    time.Duration
			failed bool
		)
		h := uint64(i)
		d.y[i] = make([]uint64, 0, 2*len(w.mats))
		for _, mt := range w.mats {
			mem := dram.MustSystem(dram.DDR4())
			call := op.child("spmv.Engine.Multiply")
			t := time.Now()
			fr, err := w.fe.Multiply(mt.m, mt.x, mem)
			lat += time.Since(t)
			call.close()
			if err != nil {
				failed = true
				break
			}
			p.cycles += float64(fr.TotalCycles)
			p.reads += float64(mem.Stats().Counter("dram.reads"))

			mem = dram.MustSystem(dram.DDR4())
			call = op.child("twostep.Engine.Multiply")
			t = time.Now()
			tr, err := w.te.Multiply(mt.m, mt.x, mem)
			lat += time.Since(t)
			call.close()
			if err != nil {
				failed = true
				break
			}
			p.cycles += float64(tr.TotalCycles)
			p.reads += float64(mem.Stats().Counter("dram.reads"))
			p.queries += 2 * mt.m.Rows

			fy, ty := yDigest(fr.Y), yDigest(tr.Y)
			d.y[i] = append(d.y[i], fy, ty)
			h = fold(fold(h, fy), ty)
			if rec != nil {
				w.traced.mergeIters += fr.Plan.MergeIterations()
				if err := w.inner(op, mt, i == 0); err != nil {
					op.close()
					return nil, err
				}
			}
		}
		op.close()
		p.lat[i] = lat
		p.digests[i] = h
		if failed {
			p.failed++
		}
	}
	if rec != nil {
		w.traced.passes = w.ops
	}
	return p, nil
}

// inner calls the layers Multiply reaches internally, on the same matrix:
// the column chunking of iteration 0 and the streaming DRAM reads. Heap
// statistics are read around the chunking of the first op only.
func (w *spmvFig14) inner(op *openSpan, mt fig14Matrix, countAllocs bool) error {
	v := w.fe.Config().VectorSize
	var before runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&before)
	}
	n := 0
	for lo := 0; lo < mt.m.Cols; lo += v {
		s := op.child("sparse.LIL.ColumnChunk")
		mt.m.ColumnChunk(lo, min(lo+v, mt.m.Cols))
		s.close()
		n++
	}
	w.traced.chunks += n
	if countAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		w.traced.chunkAllocs += int(after.Mallocs - before.Mallocs)
		w.traced.chunkAllocCalls += n
	}

	// Stream the matrix's compressed bytes over every rank, as one
	// multiply round does.
	mem := dram.MustSystem(dram.DDR4())
	ranks := mem.Config().TotalRanks()
	perRank := (mt.m.BytesStreamed() + ranks - 1) / ranks
	s := op.child("dram.System.StreamRead")
	for r := 0; r < ranks; r++ {
		if _, err := mem.StreamRead(0, r, 0, perRank, dram.DestLocal); err != nil {
			s.close()
			return err
		}
	}
	s.close()
	w.traced.streamBytes += perRank * ranks
	return nil
}

// yDigest folds a product vector bit for bit.
func yDigest(y tensor.Vector) uint64 {
	var h uint64
	for _, v := range y {
		h = fold(h, uint64(math.Float32bits(v)))
	}
	return h
}

// referenceY is the benchmark's own product: it accumulates every
// (row, col, value) triplet of the matrix in float64. Entries and operand
// elements are integers in [-4, 4], so every partial sum is an integer far
// below 2^24 and the float32 result is exact.
func referenceY(m *sparse.LIL, x tensor.Vector) (tensor.Vector, error) {
	acc := make([]float64, m.Rows)
	for r := range m.ColIdx {
		for i, c := range m.ColIdx[r] {
			v, xv := float64(m.Vals[r][i]), float64(x[c])
			if v != math.Trunc(v) || xv != math.Trunc(xv) {
				return nil, fmt.Errorf("entry (%d,%d) = %v or x[%d] = %v is not an integer", r, c, v, c, xv)
			}
			acc[r] += v * xv
		}
	}
	y := tensor.New(m.Rows)
	for r, a := range acc {
		y[r] = float32(a)
	}
	return y, nil
}

func (w *spmvFig14) verify(p *passResult) []check {
	d := p.detail.(*spmvDetail)
	var errs errList
	want := make([]uint64, len(w.mats))
	for k, mt := range w.mats {
		y, err := referenceY(mt.m, mt.x)
		if err != nil {
			errs.add("%s: %v", mt.name, err)
			continue
		}
		want[k] = yDigest(y)
	}
	for i, ys := range d.y {
		for j, got := range ys {
			k, engine := j/2, [2]string{"Fafnir", "Two-Step"}[j%2]
			if got != want[k] {
				errs.add("op %d: %s y of %s differs from the triplet accumulation", i, engine, w.mats[k].name)
			}
		}
	}
	return []check{{"spmv-fig14 Fafnir and Two-Step y equal the triplet accumulation bit for bit", errs.err()}}
}

func (w *spmvFig14) layers(rec *recorder, p *passResult) (map[string]float64, error) {
	c := w.traced
	if c.passes == 0 || c.chunks == 0 || c.chunkAllocCalls == 0 {
		return nil, fmt.Errorf("traced pass recorded no chunks")
	}
	return map[string]float64{
		"dram.stream_ns_per_kb": float64(sum(rec.durations(w.pid, "dram.System.StreamRead"))) / (float64(c.streamBytes) / 1024),
		"sparse.gen_s":          w.genS,
		"sparse.chunk_us":       us(sum(rec.durations(w.pid, "sparse.LIL.ColumnChunk"))) / float64(c.chunks),
		"sparse.chunk_allocs":   float64(c.chunkAllocs) / float64(c.chunkAllocCalls),
		"spmv.multiply_ms":      ms(sum(rec.durations(w.pid, "spmv.Engine.Multiply"))) / float64(c.passes),
		"spmv.merge_iters":      float64(c.mergeIters) / float64(c.passes),
		"twostep.multiply_ms":   ms(sum(rec.durations(w.pid, "twostep.Engine.Multiply"))) / float64(c.passes),
	}, nil
}

func (w *spmvFig14) close() {}
