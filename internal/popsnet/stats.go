package popsnet

// Stats summarizes the resource usage of a schedule.
type Stats struct {
	Slots         int
	Sends         int
	Recvs         int
	CouplersUsed  int     // distinct (slot, coupler) pairs
	MaxCouplers   int     // couplers available per slot, g²
	Utilization   float64 // CouplersUsed / (Slots · g²)
	BroadcastOnly bool    // true if some sender drove >1 coupler in a slot
}

// ComputeStats walks the schedule and returns its Stats. It does not
// validate the schedule; use Run for that.
func ComputeStats(s *Schedule) Stats {
	st := Stats{Slots: len(s.Slots), MaxCouplers: s.Net.Couplers()}
	for _, slot := range s.Slots {
		st.Sends += len(slot.Sends)
		st.Recvs += len(slot.Recvs)
		used := make(map[int]bool)
		perSender := make(map[int]int)
		for _, snd := range slot.Sends {
			used[s.Net.CouplerID(snd.DestGroup, s.Net.Group(snd.Src))] = true
			perSender[snd.Src]++
			if perSender[snd.Src] > 1 {
				st.BroadcastOnly = true
			}
		}
		st.CouplersUsed += len(used)
	}
	if st.Slots > 0 {
		st.Utilization = float64(st.CouplersUsed) / float64(st.Slots*st.MaxCouplers)
	}
	return st
}
