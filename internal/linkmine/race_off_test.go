//go:build !race

package linkmine

const raceBuild = false
