//go:build !race

package webbot

const raceBuild = false
