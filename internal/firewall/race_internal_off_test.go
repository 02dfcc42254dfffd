//go:build !race

package firewall

const raceBuild = false
