//go:build race

package briefcase

// raceBuild: under the race detector sync.Pool drops a quarter of its
// Puts at random, so exact allocation counts do not hold.
const raceBuild = true
