package main

import (
	"fmt"
	"math"

	"fafnir/internal/embedding"
	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// reduceOps is the cycle of pooling operations the embedding workloads use.
var reduceOps = []tensor.ReduceOp{tensor.OpSum, tensor.OpMin, tensor.OpMax, tensor.OpMean}

// meanULPs is the tolerance of a mean output against the exact sum / count:
// the program rounds twice in float32 (1/count, then the product), so it may
// sit up to two float32 ulps from the correctly rounded mean.
const meanULPs = 2

// mix64 is the splitmix64 finalizer; fold chains values into an
// order-sensitive digest with it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fold(h, v uint64) uint64 { return mix64(h ^ v) }

// foldOutput folds one pooled output of n rows into h. Sum, min and max
// outputs are folded bit for bit. A mean output v is folded as the exact sum
// it stands for, round(v*n), after checking that v lies within meanULPs of
// that sum / n; it reports false when it does not.
func foldOutput(h uint64, op tensor.ReduceOp, n int, out []float32) (uint64, bool) {
	ok := true
	for _, v := range out {
		if op != tensor.OpMean {
			h = fold(h, uint64(math.Float32bits(v)))
			continue
		}
		s := math.Round(float64(v) * float64(n))
		if ulpDist(v, float32(s/float64(n))) > meanULPs {
			ok = false
		}
		h = fold(h, uint64(int64(s)))
	}
	return h, ok
}

// ulpDist is the number of float32 values between a and b.
func ulpDist(a, b float32) int64 {
	d := orderedBits(a) - orderedBits(b)
	if d < 0 {
		return -d
	}
	return d
}

func orderedBits(f float32) int64 {
	b := int64(math.Float32bits(f))
	if b&0x80000000 != 0 {
		return -(b & 0x7fffffff)
	}
	return b
}

// reference is the benchmark's own reduction of embedding rows. It reads rows
// from a store it builds itself with the program's seed, and reduces them in
// integers: every row element is an integer in [-8, 8], so sum, min and max
// are exact, and a mean is the exact sum over the count.
type reference struct {
	store *embedding.Store
	row   []float32
	sum   []int64
	lo    []int64
	hi    []int64
}

func newReference(rows uint64, dim int, seed int64) (*reference, error) {
	st, err := embedding.NewStore(rows, dim, uint64(seed))
	if err != nil {
		return nil, err
	}
	return &reference{
		store: st, row: make([]float32, dim),
		sum: make([]int64, dim), lo: make([]int64, dim), hi: make([]int64, dim),
	}, nil
}

// fold folds the expected output of one query into h, in the form
// foldOutput folds the program's.
func (r *reference) fold(h uint64, op tensor.ReduceOp, indices []header.Index) (uint64, error) {
	for e := range r.sum {
		r.sum[e], r.lo[e], r.hi[e] = 0, math.MaxInt64, math.MinInt64
	}
	for _, idx := range indices {
		if err := r.store.VectorInto(idx, r.row); err != nil {
			return 0, err
		}
		for e, v := range r.row {
			x := int64(v)
			if float32(x) != v {
				return 0, fmt.Errorf("row %d element %d is %v, not an integer", idx, e, v)
			}
			r.sum[e] += x
			r.lo[e] = min(r.lo[e], x)
			r.hi[e] = max(r.hi[e], x)
		}
	}
	for e := range r.sum {
		switch op {
		case tensor.OpSum:
			h = fold(h, uint64(math.Float32bits(float32(r.sum[e]))))
		case tensor.OpMin:
			h = fold(h, uint64(math.Float32bits(float32(r.lo[e]))))
		case tensor.OpMax:
			h = fold(h, uint64(math.Float32bits(float32(r.hi[e]))))
		case tensor.OpMean:
			h = fold(h, uint64(r.sum[e]))
		}
	}
	return h, nil
}

// distinct counts the distinct indices of a batch.
func distinct(b embedding.Batch) int {
	seen := make(map[header.Index]struct{}, b.TotalAccesses())
	for _, q := range b.Queries {
		for _, idx := range q.Indices {
			seen[idx] = struct{}{}
		}
	}
	return len(seen)
}
