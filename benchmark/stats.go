package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is one timing row: every observation of one operation, in the
// unit the row is printed in.
type samples []float64

func (s *samples) add(v float64)              { *s = append(*s, v) }
func (s *samples) addMs(d time.Duration)      { s.add(ms(d)) }
func (s *samples) addSeconds(d time.Duration) { s.add(d.Seconds()) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func perSecond(n int, d time.Duration) float64 { return safeDiv(float64(n), d.Seconds()) }

// safeDiv is num/den, or 0 for an empty denominator (a ratio over nothing
// observed reads 0 rather than NaN, which JSON cannot carry).
func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s samples) median() float64 { return quantile(s.sorted(), 0.5) }

// tailPercentile is the percentile rule every timing row follows: the
// highest of p90 / p99 / p99.9 that still leaves at least ten samples
// beyond it, or 0 when even p90 does not (n < 100). A tail read off fewer
// than ten samples is the luck of one run, not a property of the system.
func tailPercentile(n int) float64 {
	tail := 0.0
	for _, perMille := range []int{900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			tail = float64(perMille) / 10
		}
	}
	return tail
}

// summary is what a timing row prints: sample count, quartiles, the
// supported tail percentile (if any) and the maximum.
type summary struct {
	n             int
	p25, p50, p75 float64
	tailP, tail   float64
	max           float64
}

func summarize(s samples) summary {
	xs := s.sorted()
	out := summary{
		n:   len(xs),
		p25: quantile(xs, 0.25), p50: quantile(xs, 0.5), p75: quantile(xs, 0.75),
		tailP: tailPercentile(len(xs)),
	}
	if len(xs) > 0 {
		out.max = xs[len(xs)-1]
	}
	if out.tailP > 0 {
		out.tail = quantile(xs, out.tailP/100)
	}
	return out
}

func (s summary) String() string {
	tail := ""
	if s.tailP > 0 {
		tail = fmt.Sprintf(" p%g=%.4g", s.tailP, s.tail)
	}
	return fmt.Sprintf("n=%d p25=%.4g p50=%.4g p75=%.4g%s max=%.4g", s.n, s.p25, s.p50, s.p75, tail, s.max)
}

// spread is the run-to-run noise measure BENCHMARK.json bounds are held
// against: interquartile range as a share of the median.
func spread(s samples) float64 {
	xs := s.sorted()
	return safeDiv(quantile(xs, 0.75)-quantile(xs, 0.25), quantile(xs, 0.5))
}

// lateness is the due-time accounting of the serve_mixed write schedule:
// a write is timed from when it was due, not from when the generator got
// round to sending it, so a stall that delays the generator is charged to
// the system rather than silently thinning the load.
type lateness struct {
	due  time.Time // scheduled send time
	sent time.Time // actual send time (>= due)
	done time.Time // completion
}

// latency is completion minus due time; lag is how late the generator ran.
func (l lateness) latency() time.Duration { return l.done.Sub(l.due) }
func (l lateness) lag() time.Duration     { return l.sent.Sub(l.due) }
