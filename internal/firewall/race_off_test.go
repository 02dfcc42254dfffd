//go:build !race

package firewall_test

const raceEnabled = false
