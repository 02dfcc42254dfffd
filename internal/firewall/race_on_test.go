//go:build race

package firewall_test

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so exact allocation counts do not hold.
const raceEnabled = true
