//go:build !race

package pops

const raceEnabled = false
