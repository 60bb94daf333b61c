package core

import (
	"math"
	"testing"

	"chet/internal/nn"
)

func TestLPTMakespan(t *testing.T) {
	costs := []float64{7, 5, 4, 3, 3, 2}

	// T=1 is the plain left-to-right sum.
	if got := LPTMakespan(costs, 1); got != 24 {
		t.Fatalf("T=1 makespan = %v, want 24", got)
	}
	// LPT on 2 threads: 7|5, 5+4=9, 7+3=10, 9+3=12, 10+2=12 -> max 12.
	if got := LPTMakespan(costs, 2); got != 12 {
		t.Fatalf("T=2 makespan = %v, want 12", got)
	}
	// More threads than ops: the longest op dominates.
	if got := LPTMakespan(costs, 16); got != 7 {
		t.Fatalf("T=16 makespan = %v, want 7", got)
	}
	if got := LPTMakespan(nil, 4); got != 0 {
		t.Fatalf("empty makespan = %v, want 0", got)
	}

	// Invariants: non-increasing in T, never below the critical bounds.
	prev := math.Inf(1)
	for _, threads := range []int{1, 2, 3, 4, 8} {
		got := LPTMakespan(costs, threads)
		if got > prev {
			t.Fatalf("makespan grew from %v to %v at T=%d", prev, got, threads)
		}
		if got < 24/float64(threads) || got < 7 {
			t.Fatalf("T=%d makespan %v below lower bound", threads, got)
		}
		prev = got
	}
}

// TestCostThreadsSerialParity pins the compatibility guarantee: CostThreads
// of 0 or 1 must reproduce the historical serial estimates bit-for-bit, so
// every layout decision the compiler has ever made is stable.
func TestCostThreadsSerialParity(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every network twice per scheme; run without -short")
	}
	for _, m := range nn.All() {
		for _, scheme := range []Scheme{SchemeCKKS, SchemeRNS} {
			base, err := compileZoo(m.Circuit, scheme, 128)
			if err != nil {
				t.Fatalf("%s/%v: %v", m.Name, scheme, err)
			}
			one, err := Compile(m.Circuit, Options{Scheme: scheme, CostThreads: 1})
			if err != nil {
				t.Fatalf("%s/%v (T=1): %v", m.Name, scheme, err)
			}
			if one.Best.Policy != base.Best.Policy {
				t.Fatalf("%s/%v: T=1 flipped the layout decision: %v vs %v",
					m.Name, scheme, one.Best.Policy, base.Best.Policy)
			}
			for i := range base.Trace {
				b, o := base.Trace[i], one.Trace[i]
				if o.EstimatedCost != b.EstimatedCost {
					t.Fatalf("%s/%v policy %v: T=1 cost %v != serial cost %v (must be exact)",
						m.Name, scheme, b.Policy, o.EstimatedCost, b.EstimatedCost)
				}
			}
		}
	}
}

// TestCostThreadsMakespan checks the T-thread estimate behaves like a
// makespan: below the serial sum, above serial/T, and monotonically
// non-increasing in T.
func TestCostThreadsMakespan(t *testing.T) {
	c := nn.LeNet5Small().Circuit
	serial, err := Compile(c, Options{Scheme: SchemeRNS})
	if err != nil {
		t.Fatal(err)
	}
	prev := serial.Best.EstimatedCost
	for _, threads := range []int{2, 4, 16} {
		comp, err := Compile(c, Options{Scheme: SchemeRNS, CostThreads: threads})
		if err != nil {
			t.Fatalf("T=%d: %v", threads, err)
		}
		got := comp.Best.EstimatedCost
		if got > prev {
			t.Fatalf("T=%d estimate %v exceeds T'<%d estimate %v", threads, got, threads, prev)
		}
		if got < serial.Best.EstimatedCost/float64(threads) {
			t.Fatalf("T=%d estimate %v below serial/T bound %v",
				threads, got, serial.Best.EstimatedCost/float64(threads))
		}
		// Parallelism must actually help a network this wide.
		if threads >= 4 && got >= 0.9*serial.Best.EstimatedCost {
			t.Fatalf("T=%d estimate %v barely below serial %v", threads, got, serial.Best.EstimatedCost)
		}
		prev = got
	}
}
