//go:build race

package pops

// raceEnabled reports a -race build, where sync.Pool drops a share of what
// is put back, so pool-backed allocation budgets do not hold.
const raceEnabled = true
