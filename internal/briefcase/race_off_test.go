//go:build !race

package briefcase

const raceBuild = false
