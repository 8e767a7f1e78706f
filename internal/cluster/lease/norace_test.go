//go:build !race

package lease

const raceEnabled = false
