package sysmodel

// This file provides the allocation-analysis helper used by the reports
// and the resource-manager studies: utilization accounting.

// AllocationStats summarizes how an allocation uses the system.
type AllocationStats struct {
	// UsedByType[j] is the number of processors of type j consumed.
	UsedByType []int
	// IdleByType[j] is the number left unused.
	IdleByType []int
	// TotalUsed and TotalIdle aggregate across types.
	TotalUsed, TotalIdle int
	// Utilization is TotalUsed / TotalProcessors.
	Utilization float64
}

// Stats computes utilization accounting for an allocation; it returns
// an error if the allocation is infeasible.
func (al Allocation) Stats(sys *System, batch Batch) (*AllocationStats, error) {
	if err := al.Validate(sys, batch); err != nil {
		return nil, err
	}
	s := &AllocationStats{
		UsedByType: al.Used(len(sys.Types)),
		IdleByType: make([]int, len(sys.Types)),
	}
	total := 0
	for j, t := range sys.Types {
		s.IdleByType[j] = t.Count - s.UsedByType[j]
		s.TotalUsed += s.UsedByType[j]
		s.TotalIdle += s.IdleByType[j]
		total += t.Count
	}
	s.Utilization = float64(s.TotalUsed) / float64(total)
	return s, nil
}
