package main

import (
	"errors"
	"fmt"
	"io"
)

// series gathers, per workload and end-to-end metric, the values of a result
// file's untraced runs, and the failed share of all its runs.
type series struct {
	values    map[string]map[string][]float64 // workload → metric → one value per run
	failed    map[string]int
	attempted map[string]int
}

func collect(f *resultFile) series {
	s := series{
		values:    map[string]map[string][]float64{},
		failed:    map[string]int{},
		attempted: map[string]int{},
	}
	for _, r := range f.Runs {
		s.failed[r.Workload] += r.Failed
		s.attempted[r.Workload] += r.Attempted
		if r.Trace {
			continue
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			if metricByName[name].EndToEnd {
				s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
			}
		}
	}
	return s
}

func (s series) failedShare(workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the candidate as a ratio of the base, the run-to-run spread of
// each side (quartile distance over median), the metric's bound and a
// verdict. It returns an error when any row is worse or a workload's failed
// share rose.
func compareFiles(w io.Writer, basePath, candPath string) error {
	baseFile, err := readResultFile(basePath)
	if err != nil {
		return err
	}
	candFile, err := readResultFile(candPath)
	if err != nil {
		return err
	}
	base, cand := collect(baseFile), collect(candFile)
	fmt.Fprintf(w, "base      %s  commit %.12s dirty=%v  %s\n", basePath, baseFile.Stamp.Commit, baseFile.Stamp.Dirty, baseFile.Stamp.Timestamp)
	fmt.Fprintf(w, "candidate %s  commit %.12s dirty=%v  %s\n\n", candPath, candFile.Stamp.Commit, candFile.Stamp.Dirty, candFile.Stamp.Timestamp)
	fmt.Fprintf(w, "%-14s %-16s %12s %12s  %-22s %8s %8s %6s  %s\n",
		"workload", "metric", "base", "candidate", "ratio", "spread_b", "spread_c", "bound", "verdict")

	var bad []string
	for _, workload := range workloadNames {
		for _, d := range metricDefs {
			if !d.EndToEnd {
				continue
			}
			b, c := base.values[workload][d.Name], cand.values[workload][d.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			mb, mc := medianOf(b), medianOf(c)
			sb, sc := quartileSpread(b), quartileSpread(c)
			// worsening is how far the candidate's median moved in the
			// direction that is worse for this metric, as a share of the base.
			worsening := (mc - mb) / mb
			if d.Better == "higher" {
				worsening = -worsening
			}
			verdict := "same"
			switch {
			case worsening > d.Bound:
				verdict = "worse"
				bad = append(bad, workload+"/"+d.Name)
			case sb > d.Bound || sc > d.Bound:
				verdict = "unresolved"
			}
			ratio := fmt.Sprintf("%.3f of base %.4g", mc/mb, mb)
			fmt.Fprintf(w, "%-14s %-16s %12.5g %12.5g  %-22s %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				workload, d.Name, mb, mc, ratio, 100*sb, 100*sc, 100*d.Bound, verdict, len(b), len(c))
		}
		fb, fc := base.failedShare(workload), cand.failedShare(workload)
		verdict := "same"
		if fc > fb {
			verdict = "worse"
			bad = append(bad, workload+"/failed_share")
		}
		if base.attempted[workload] > 0 || cand.attempted[workload] > 0 {
			fmt.Fprintf(w, "%-14s %-16s %12.5g %12.5g  %-22s %8s %8s %6s  %s\n",
				workload, "failed_share", fb, fc, "-", "-", "-", "0", verdict)
		}
	}
	if len(bad) > 0 {
		return errors.New("worse than the base: " + fmt.Sprint(bad))
	}
	return nil
}
