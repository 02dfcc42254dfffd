//go:build !race

package services

const raceBuild = false
