//go:build !race

package policy

const raceBuild = false
