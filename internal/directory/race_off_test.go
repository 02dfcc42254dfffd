//go:build !race

package directory

const raceBuild = false
