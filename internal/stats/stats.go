// Package stats provides the measurement primitives used by the
// simulator: streaming latency statistics with log-scale histograms for
// percentile estimation, aggregated time-at-rate occupancies, and small
// helpers for report tables.
package stats

import (
	"fmt"
	"math"
	"strings"

	"epnet/internal/link"
	"epnet/internal/sim"
)

// Latency accumulates a stream of duration samples. It keeps exact
// count/sum/min/max and a geometric histogram (buckets growing by
// ~1.0905x, i.e. 8 buckets per octave) for percentile estimates within
// ~9% relative error.
type Latency struct {
	count   int64
	sum     sim.Time
	min     sim.Time
	max     sim.Time
	buckets [numBuckets]int64
}

const bucketsPerOctave = 8

// numBuckets covers the whole sim.Time domain. Index 0 holds zero and
// negative samples; index i > 0 holds samples d with
// floor(log2(d)*bucketsPerOctave) == i-1. float64(MaxInt64) rounds to
// 2^63, so the largest sample lands at index 63*bucketsPerOctave+1.
const numBuckets = 63*bucketsPerOctave + 2

// NewLatency returns an empty latency accumulator.
func NewLatency() *Latency {
	return &Latency{min: math.MaxInt64}
}

func bucketOf(d sim.Time) int {
	if d <= 0 {
		return 0
	}
	return int(math.Floor(math.Log2(float64(d))*bucketsPerOctave)) + 1
}

// bucketUpper returns bucket i's upper bound, saturating at the top of
// the sim.Time range.
func bucketUpper(i int) sim.Time {
	if i == 0 {
		return 0
	}
	u := math.Exp2(float64(i) / bucketsPerOctave)
	if u >= math.MaxInt64 {
		return math.MaxInt64
	}
	return sim.Time(u)
}

// Add records one sample.
func (l *Latency) Add(d sim.Time) {
	l.count++
	l.sum += d
	if d < l.min {
		l.min = d
	}
	if d > l.max {
		l.max = d
	}
	l.buckets[bucketOf(d)]++
}

// Count returns the number of samples.
func (l *Latency) Count() int64 { return l.count }

// Mean returns the mean sample, or 0 with no samples.
func (l *Latency) Mean() sim.Time {
	if l.count == 0 {
		return 0
	}
	return sim.Time(int64(l.sum) / l.count)
}

// Min and Max return the extremes (0 with no samples).
func (l *Latency) Min() sim.Time {
	if l.count == 0 {
		return 0
	}
	return l.min
}
func (l *Latency) Max() sim.Time {
	if l.count == 0 {
		return 0
	}
	return l.max
}

// Percentile returns an estimate of the p-th percentile (p in [0,100]).
func (l *Latency) Percentile(p float64) sim.Time {
	if l.count == 0 {
		return 0
	}
	if p <= 0 {
		return l.min
	}
	if p >= 100 {
		return l.max
	}
	target := int64(math.Ceil(float64(l.count) * p / 100))
	var cum int64
	for i, n := range l.buckets {
		cum += n
		if cum >= target {
			return max(min(bucketUpper(i), l.max), l.min)
		}
	}
	return l.max
}

// Bucket is one histogram cell: Count samples at or below Upper (and
// above the previous bucket's Upper).
type Bucket struct {
	Upper sim.Time
	Count int64
}

// Buckets returns the non-empty histogram cells in ascending order of
// bound, suitable for CDF reporting.
func (l *Latency) Buckets() []Bucket {
	var out []Bucket
	for i, n := range l.buckets {
		if n > 0 {
			out = append(out, Bucket{Upper: min(bucketUpper(i), l.max), Count: n})
		}
	}
	return out
}

// Merge adds all samples of other into l.
func (l *Latency) Merge(other *Latency) {
	if other.count == 0 {
		return
	}
	l.count += other.count
	l.sum += other.sum
	l.min = min(l.min, other.min)
	l.max = max(l.max, other.max)
	for i, n := range other.buckets {
		l.buckets[i] += n
	}
}

// RateShare aggregates time-at-rate occupancies across many channels
// of one ladder: the data behind the paper's Figure 7. At is indexed by
// rung. The zero value is an empty aggregate.
type RateShare struct {
	At    [link.NumRates]sim.Time
	Off   sim.Time
	Total sim.Time
}

// Add folds one channel occupancy into the aggregate.
func (s *RateShare) Add(o link.Occupancy) {
	for i, t := range o.AtRate {
		s.At[i] += t
	}
	s.Off += o.Off
	s.Total += o.Total
}

// Fraction returns the share of aggregate channel-time at ladder rung i.
func (s *RateShare) Fraction(i int) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.At[i]) / float64(s.Total)
}

// OffFraction returns the share of aggregate channel-time powered off.
func (s *RateShare) OffFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Off) / float64(s.Total)
}

// Table is a minimal fixed-width text table for experiment reports.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Bar renders a horizontal ASCII bar of the given fractional width
// (0..1) over maxCols columns, for figure-like terminal output.
func Bar(frac float64, maxCols int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(maxCols) + 0.5)
	return strings.Repeat("#", n)
}

// F formats a float with the given number of decimals; convenience for
// table rows.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
