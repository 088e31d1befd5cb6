// Package stats provides the small statistics toolkit shared by the
// simulator: rate helpers, histograms, and aligned text tables that the
// experiment harness uses to print paper-style rows.
package stats

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Percent returns 100*a/b, or 0 when b is zero.
func Percent(a, b uint64) float64 { return 100 * Ratio(a, b) }

// Speedup returns the percentage improvement of new over base measured in
// "bigger is better" units (e.g. IPC): 100*(new-base)/base.
func Speedup(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (new - base) / base
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values
// (which would be undefined); it returns 0 for an empty input.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// histDense is the dense fast-path range. The simulator's per-cycle
// observations (call depths, queue occupancies) are small non-negative
// integers, so values in [0, histDense) are counted in a flat array — one
// increment, no hashing. Anything else falls back to a lazily allocated
// map.
const histDense = 512

// Histogram counts integer-valued observations.
type Histogram struct {
	dense  []uint64       // counts for values in [0, histDense); nil until first use
	sparse map[int]uint64 // outlier counts; nil until first use
	total  uint64
	sum    int64
	max    int
	min    int
}

// NewHistogram returns an empty histogram. Storage is allocated on first
// use, so idle histograms cost one struct.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	if uint(v) < histDense {
		if h.dense == nil {
			h.dense = make([]uint64, histDense)
		}
		h.dense[v]++
	} else {
		if h.sparse == nil {
			h.sparse = make(map[int]uint64)
		}
		h.sparse[v]++
	}
	h.total++
	h.sum += int64(v)
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
}

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.dense = slices.Clone(h.dense)
	c.sparse = maps.Clone(h.sparse)
	return &c
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the average observation, 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the largest observation, 0 if empty.
func (h *Histogram) Max() int {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest observation, 0 if empty.
func (h *Histogram) Min() int {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Count returns the number of observations of exactly v.
func (h *Histogram) Count(v int) uint64 {
	if uint(v) < histDense {
		if h.dense == nil {
			return 0
		}
		return h.dense[v]
	}
	return h.sparse[v]
}

// CountAtLeast returns the number of observations >= v.
func (h *Histogram) CountAtLeast(v int) uint64 {
	var n uint64
	if h.dense != nil {
		start := v
		if start < 0 {
			start = 0
		}
		for k := start; k < histDense; k++ {
			n += h.dense[k]
		}
	}
	for k, c := range h.sparse {
		if k >= v {
			n += c
		}
	}
	return n
}

// keys returns every observed value in increasing order.
func (h *Histogram) keys() []int {
	keys := make([]int, 0, len(h.sparse)+16)
	for k := range h.sparse {
		keys = append(keys, k)
	}
	for k := range h.dense {
		if h.dense[k] > 0 {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}

// Percentile returns the smallest value v such that at least p percent of
// observations are <= v. p is in [0,100].
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	keys := h.keys()
	threshold := uint64(math.Ceil(p / 100 * float64(h.total)))
	if threshold == 0 {
		threshold = 1
	}
	var cum uint64
	for _, k := range keys {
		cum += h.Count(k)
		if cum >= threshold {
			return k
		}
	}
	return keys[len(keys)-1]
}

// Table accumulates rows and renders them with aligned columns — the
// format used for every reproduced paper table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row; cells beyond the header count are kept and simply
// widen the table.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row formatting each value with its paired verb, e.g.
// AddRowf("%s", name, "%.2f", ipc).
func (t *Table) AddRowf(pairs ...interface{}) {
	if len(pairs)%2 != 0 {
		panic("stats: AddRowf needs verb/value pairs")
	}
	cells := make([]string, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		cells = append(cells, fmt.Sprintf(pairs[i].(string), pairs[i+1]))
	}
	t.AddRow(cells...)
}

// String renders the table.
func (t *Table) String() string {
	ncols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			// Left-align the first column (names), right-align the rest.
			if i == 0 {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			} else {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(ncols-1)))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
