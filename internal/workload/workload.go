// Package workload generates the datasets and query workloads of the
// paper's evaluation (§5.1): a correlated multivariate Gaussian, a
// synthetic stand-in for the NY State DMV registration data, and a
// synthetic stand-in for the Instacart orders table. The real DMV and
// Instacart dumps are not redistributable. The synthetic substitutes
// preserve the evaluation's behaviour because all methods consume only
// (predicate, true-selectivity) pairs over a shared table.
package workload

import (
	"fmt"
	"math/rand"

	"quicksel/internal/geom"
	"quicksel/internal/predicate"
	"quicksel/internal/table"
)

// Dataset bundles a schema, a populated table, and a human-readable name.
type Dataset struct {
	Name   string
	Schema *predicate.Schema
	Table  *table.Table
}

// Query is one selectivity-estimation request: the predicate and its
// lowering to disjoint normalized boxes. All workloads in the paper issue
// conjunctive (single-box) predicates; Boxes has length 1 for those.
type Query struct {
	Pred  *predicate.Predicate
	Boxes []geom.Box
}

// Box returns the single normalized box of a conjunctive query. It panics
// if the query is not a single hyperrectangle; workload generators in this
// package only produce single-box queries.
func (q Query) Box() geom.Box {
	if len(q.Boxes) != 1 {
		panic(fmt.Sprintf("workload: query %s has %d boxes, want 1", q.Pred, len(q.Boxes)))
	}
	return q.Boxes[0]
}

// Observed pairs a query with its exact selectivity; this is the paper's
// (P_i, s_i) training record.
type Observed struct {
	Query Query
	Sel   float64
}

// Observe computes exact selectivities for the queries against the dataset,
// producing the training stream the query-driven estimators consume.
func Observe(ds *Dataset, queries []Query) []Observed {
	out := make([]Observed, len(queries))
	for i, q := range queries {
		out[i] = Observed{Query: q, Sel: ds.Table.SelectivityBoxes(q.Boxes)}
	}
	return out
}

// ShiftKind selects the workload-shift pattern of Figure 7b.
type ShiftKind int

const (
	// RandomShift draws every query rectangle uniformly at random.
	RandomShift ShiftKind = iota
	// SlidingShift slides the rectangles from the left tail of the domain
	// to the right tail over the query sequence.
	SlidingShift
	// NoShift repeats one fixed rectangle for all queries.
	NoShift
)

func (k ShiftKind) String() string {
	switch k {
	case RandomShift:
		return "random-shift"
	case SlidingShift:
		return "sliding-shift"
	case NoShift:
		return "no-shift"
	default:
		return fmt.Sprintf("ShiftKind(%d)", int(k))
	}
}

// rangeQuery builds a conjunctive range query over all columns of the
// schema: per column, a half-open interval of the given fractional width
// centered at the given fractional position (both in normalized [0,1]
// coordinates), converted back to raw coordinates.
func rangeQuery(s *predicate.Schema, centers, widths []float64) Query {
	preds := make([]*predicate.Predicate, s.Dim())
	for c := 0; c < s.Dim(); c++ {
		lo := centers[c] - widths[c]/2
		hi := centers[c] + widths[c]/2
		if lo < 0 {
			lo = 0
		}
		if hi > 1 {
			hi = 1
		}
		if hi <= lo {
			hi = lo + 1e-6
			if hi > 1 {
				lo, hi = 1-1e-6, 1
			}
		}
		preds[c] = predicate.Range(c, s.Denormalize(c, lo), s.Denormalize(c, hi))
	}
	p := predicate.And(preds...)
	boxes, err := p.Boxes(s)
	if err != nil {
		panic(fmt.Sprintf("workload: lowering generated query: %v", err))
	}
	return Query{Pred: p, Boxes: boxes}
}

// RangeQueries draws n random conjunctive range queries with per-dimension
// widths uniform in [minWidth, maxWidth] (fractions of the domain) and the
// given shift pattern. Deterministic in seed.
func RangeQueries(s *predicate.Schema, n int, shift ShiftKind, minWidth, maxWidth float64, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	d := s.Dim()
	queries := make([]Query, 0, n)

	// The fixed rectangle of the no-shift pattern.
	fixedCenters := make([]float64, d)
	fixedWidths := make([]float64, d)
	for c := 0; c < d; c++ {
		fixedCenters[c] = 0.3 + 0.4*rng.Float64()
		fixedWidths[c] = minWidth + (maxWidth-minWidth)*rng.Float64()
	}

	for i := 0; i < n; i++ {
		centers := make([]float64, d)
		widths := make([]float64, d)
		for c := 0; c < d; c++ {
			widths[c] = minWidth + (maxWidth-minWidth)*rng.Float64()
			switch shift {
			case RandomShift:
				centers[c] = rng.Float64()
			case SlidingShift:
				// Slide from 0.1 to 0.9 across the sequence with jitter.
				frac := float64(i) / float64(max(n-1, 1))
				centers[c] = 0.1 + 0.8*frac + 0.05*rng.NormFloat64()
				if centers[c] < 0 {
					centers[c] = 0
				}
				if centers[c] > 1 {
					centers[c] = 1
				}
			case NoShift:
				centers[c] = fixedCenters[c]
				widths[c] = fixedWidths[c]
			}
		}
		queries = append(queries, rangeQuery(s, centers, widths))
	}
	return queries
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// DataCenteredQueries draws range queries whose centers are (jittered)
// normalized coordinates of randomly sampled rows, mimicking workloads that
// probe existing records. High-dimensional and highly-correlated datasets
// concentrate their mass on a tiny fraction of the domain volume, so
// uniformly random rectangles are almost always empty there; realistic
// workloads — like the paper's DMV "valid registrations" queries — target
// the populated region. Widths are fractions of the domain per dimension.
func DataCenteredQueries(ds *Dataset, n int, minWidth, maxWidth float64, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	s := ds.Schema
	d := s.Dim()
	rows := ds.Table.Rows()
	queries := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		centers := make([]float64, d)
		widths := make([]float64, d)
		if rows > 0 {
			row := ds.Table.Row(rng.Intn(rows))
			for c := 0; c < d; c++ {
				centers[c] = s.Normalize(c, row[c]) + 0.05*rng.NormFloat64()
				if centers[c] < 0 {
					centers[c] = 0
				}
				if centers[c] > 1 {
					centers[c] = 1
				}
			}
		} else {
			for c := 0; c < d; c++ {
				centers[c] = rng.Float64()
			}
		}
		for c := 0; c < d; c++ {
			widths[c] = minWidth + (maxWidth-minWidth)*rng.Float64()
		}
		queries = append(queries, rangeQuery(s, centers, widths))
	}
	return queries
}
