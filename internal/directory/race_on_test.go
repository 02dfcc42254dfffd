//go:build race

package directory

// raceBuild: the race detector adds allocations of its own, so exact
// allocation counts do not hold.
const raceBuild = true
