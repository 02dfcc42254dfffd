//go:build race

package linkmine

// raceBuild: the race detector adds allocations of its own, so
// allocation counts do not hold.
const raceBuild = true
