package sysmodel

import (
	"fmt"
	"strings"
)

// Assignment allocates one application to Procs processors of a single
// processor type (the paper restricts each application to processors of
// one type).
type Assignment struct {
	// Type indexes System.Types.
	Type int
	// Procs is the number of processors of that type assigned.
	Procs int
}

// Allocation maps each application of a batch (by index) to its
// assignment. It is the output of Stage I and the input of Stage II.
type Allocation []Assignment

// Validate checks the allocation against the system and batch: every
// application assigned, positive processor counts, and per-type capacity
// respected (processors are dedicated to one application for the batch
// duration, per the paper's no-reallocation rule).
func (al Allocation) Validate(sys *System, batch Batch) error {
	if len(al) != len(batch) {
		return fmt.Errorf("sysmodel: allocation covers %d of %d applications", len(al), len(batch))
	}
	used := make([]int, len(sys.Types))
	for i, as := range al {
		if as.Type < 0 || as.Type >= len(sys.Types) {
			return fmt.Errorf("sysmodel: app %d assigned to unknown type %d", i, as.Type)
		}
		if as.Procs < 1 {
			return fmt.Errorf("sysmodel: app %d assigned %d processors", i, as.Procs)
		}
		used[as.Type] += as.Procs
	}
	for j, u := range used {
		if u > sys.Types[j].Count {
			return fmt.Errorf("sysmodel: type %d oversubscribed: %d used of %d",
				j, u, sys.Types[j].Count)
		}
	}
	return nil
}

// Used returns the number of processors of each type consumed by the
// allocation.
func (al Allocation) Used(numTypes int) []int {
	used := make([]int, numTypes)
	for _, as := range al {
		used[as.Type] += as.Procs
	}
	return used
}

// Clone returns a deep copy.
func (al Allocation) Clone() Allocation {
	return append(Allocation(nil), al...)
}

// Equal reports whether two allocations are identical.
func (al Allocation) Equal(other Allocation) bool {
	if len(al) != len(other) {
		return false
	}
	for i := range al {
		if al[i] != other[i] {
			return false
		}
	}
	return true
}

// String renders the allocation as "app0->T0x4 app1->T1x2 ...".
func (al Allocation) String() string {
	var b strings.Builder
	for i, as := range al {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "app%d->T%dx%d", i, as.Type, as.Procs)
	}
	return b.String()
}

// PowerOfTwoCounts returns the ascending powers of two that are <= max
// (1, 2, 4, ...). The paper assumes applications are assigned a
// power-of-2 number of processors of one type.
func PowerOfTwoCounts(max int) []int {
	var out []int
	for c := 1; c <= max; c *= 2 {
		out = append(out, c)
	}
	return out
}

// EnumerateAllocations calls visit with every feasible allocation of the
// batch onto the system where each application receives a power-of-2
// number of processors of a single type and type capacities are
// respected. visit must not retain the allocation (it is reused);
// returning false stops the enumeration early. The number of feasible
// allocations grows exponentially with the batch size, so this is only
// for small instances and for validating heuristics.
func EnumerateAllocations(sys *System, batch Batch, visit func(Allocation) bool) {
	EnumerateAllocationsFrom(sys, batch, nil, nil, visit)
}

// EnumerateAllocationsFrom enumerates the feasible completions of a
// fixed assignment prefix: applications 0..len(prefix)-1 keep their
// prefix assignments (whose processors are deducted from the
// capacities), and the remaining applications are enumerated exactly as
// EnumerateAllocations would. Visit order matches the corresponding
// subsequence of the full enumeration, which is what lets a parallel
// search partition the space by prefix and still reduce in the
// sequential tie-break order. A nil or empty prefix enumerates
// everything. It panics if the prefix is longer than the batch.
//
// enter, when non-nil, is called at every interior node of the
// enumeration tree, before application i's options are tried: al[:i]
// holds the node's assignments and remaining the processors of each
// type they leave free. Returning false skips the node's subtree —
// every completion of al[:i] — and the enumeration goes on with the
// node's next sibling; this is how a branch-and-bound search prunes
// without a recursion of its own. enter must not retain al or
// remaining.
func EnumerateAllocationsFrom(sys *System, batch Batch, prefix Allocation, enter func(i int, al Allocation, remaining []int) bool, visit func(Allocation) bool) {
	if len(prefix) > len(batch) {
		panic(fmt.Sprintf("sysmodel: prefix of %d assignments for %d applications", len(prefix), len(batch)))
	}
	al := make(Allocation, len(batch))
	copy(al, prefix)
	remaining := make([]int, len(sys.Types))
	for j, t := range sys.Types {
		remaining[j] = t.Count
	}
	for _, as := range prefix {
		remaining[as.Type] -= as.Procs
		if remaining[as.Type] < 0 {
			return // infeasible prefix: nothing to enumerate
		}
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(batch) {
			return visit(al)
		}
		if enter != nil && !enter(i, al, remaining) {
			return true
		}
		for j := range sys.Types {
			for c := 1; c <= remaining[j]; c *= 2 {
				al[i] = Assignment{Type: j, Procs: c}
				remaining[j] -= c
				ok := rec(i + 1)
				remaining[j] += c
				if !ok {
					return false
				}
			}
		}
		return true
	}
	rec(len(prefix))
}

// CountAllocations returns the number of feasible allocations
// EnumerateAllocations would visit, but stops enumerating once the
// count passes limit: a result above limit only means "more than
// limit". The full space of a mid-sized batch runs to hundreds of
// millions of allocations, so sizing a search against a budget must
// not walk the space it is about to refuse.
func CountAllocations(sys *System, batch Batch, limit int) int {
	n := 0
	EnumerateAllocations(sys, batch, func(Allocation) bool {
		n++
		return n <= limit
	})
	return n
}
