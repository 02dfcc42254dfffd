//go:build race

package firewall

// raceBuild: under the race detector sync.Pool drops a quarter of its
// Puts at random and append(s, make(n)...) allocates twice, so heap
// byte budgets do not hold.
const raceBuild = true
