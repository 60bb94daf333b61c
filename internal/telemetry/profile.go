package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Quantile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample using linear interpolation between the two closest ranks, so a
// small window reports e.g. q(0.99) between its top two samples instead of
// collapsing to the maximum (the nearest-rank failure mode for windows
// under 100 samples).
func Quantile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	// Round to the nearest nanosecond: truncation would report 909.999999ms
	// for an exact 910ms interpolation point.
	return sorted[lo] + time.Duration(math.Round(frac*float64(sorted[hi]-sorted[lo])))
}

// OpProfile is the flat per-op view of a recorded run.
type OpProfile struct {
	Op       string
	Count    int
	Total    time.Duration
	P50, P99 time.Duration
	// PctOfWall is Total as a percentage of the run's wall time. Op work
	// on concurrent workers overlaps, so the column may sum past 100%.
	PctOfWall float64
}

// ScopeProfile aggregates the scope spans sharing one label (one circuit
// node's kernel, or one serve-side request evaluation).
type ScopeProfile struct {
	Scope     string
	Count     int
	Total     time.Duration
	PctOfWall float64
}

// Profile is a flat summary of the retained spans.
type Profile struct {
	// Wall spans the first recorded start to the last recorded end.
	Wall time.Duration
	// ScopeTotal sums the top-level scope spans (nested scopes excluded,
	// so serial kernels sum to ~the executor's wall time).
	ScopeTotal time.Duration
	Ops        []OpProfile    // sorted by Total descending
	Scopes     []ScopeProfile // in first-seen (execution) order
}

// Profile aggregates the tracer's retained spans.
func (t *Tracer) Profile() Profile {
	return ProfileSpans(t.Snapshot())
}

// ProfileSpans aggregates an explicit span slice (e.g. a Snapshot taken
// earlier or filtered by scope).
func ProfileSpans(spans []Span) Profile {
	var p Profile
	if len(spans) == 0 {
		return p
	}
	var first, last time.Duration = spans[0].Start, 0
	byOp := map[string][]time.Duration{}
	scopeIdx := map[string]int{}
	for _, s := range spans {
		if s.Start < first {
			first = s.Start
		}
		if end := s.Start + s.Dur; end > last {
			last = end
		}
		switch s.Kind {
		case KindOp:
			byOp[s.Op] = append(byOp[s.Op], s.Dur)
		case KindScope:
			i, ok := scopeIdx[s.Op]
			if !ok {
				i = len(p.Scopes)
				scopeIdx[s.Op] = i
				p.Scopes = append(p.Scopes, ScopeProfile{Scope: s.Op})
			}
			p.Scopes[i].Count++
			p.Scopes[i].Total += s.Dur
			if s.Scope == "" {
				p.ScopeTotal += s.Dur
			}
		}
	}
	p.Wall = last - first
	for op, durs := range byOp {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		var total time.Duration
		for _, d := range durs {
			total += d
		}
		p.Ops = append(p.Ops, OpProfile{
			Op:        op,
			Count:     len(durs),
			Total:     total,
			P50:       Quantile(durs, 0.50),
			P99:       Quantile(durs, 0.99),
			PctOfWall: pct(total, p.Wall),
		})
	}
	sort.Slice(p.Ops, func(i, j int) bool { return p.Ops[i].Total > p.Ops[j].Total })
	for i := range p.Scopes {
		p.Scopes[i].PctOfWall = pct(p.Scopes[i].Total, p.Wall)
	}
	return p
}

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// RenderProfile formats a profile as the two tables chet-run prints.
func RenderProfile(p Profile) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-op profile (wall %v):\n", p.Wall.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  %-10s %8s %12s %12s %12s %7s\n", "op", "count", "total", "p50", "p99", "%wall")
	for _, o := range p.Ops {
		fmt.Fprintf(&sb, "  %-10s %8d %12v %12v %12v %6.1f%%\n",
			o.Op, o.Count, o.Total.Round(time.Microsecond),
			o.P50.Round(time.Microsecond), o.P99.Round(time.Microsecond), o.PctOfWall)
	}
	if len(p.Scopes) > 0 {
		fmt.Fprintf(&sb, "per-kernel profile (scope total %v):\n", p.ScopeTotal.Round(time.Microsecond))
		fmt.Fprintf(&sb, "  %-28s %6s %12s %7s\n", "kernel", "count", "total", "%wall")
		for _, s := range p.Scopes {
			fmt.Fprintf(&sb, "  %-28s %6d %12v %6.1f%%\n",
				s.Scope, s.Count, s.Total.Round(time.Microsecond), s.PctOfWall)
		}
	}
	return sb.String()
}
