package webbot

import (
	"errors"

	"tax/internal/firewall"
)

// Typed crawler errors. Each is registered with the firewall's error
// code registry, so a webbot failure crossing a host boundary (a fleet
// worker reporting to its coordinator) survives as the same errors.Is
// sentinel on the far side.
var (
	// ErrUnstable reports a subtree clamped and journaled because it
	// lies beyond the stable limit — the paper's observation that the
	// robot's recursive expansion is only trustworthy to depth 4 on the
	// case-study server.
	ErrUnstable = errors.New("webbot: unstable beyond max stable depth")
	// ErrRobotsDenied reports a URL the site's robots.txt forbids for
	// this crawler.
	ErrRobotsDenied = errors.New("webbot: denied by robots.txt")
	// ErrFetchFailed reports a URL whose fetch failed after the
	// frontier's retry budget (or whose record is missing at replay).
	ErrFetchFailed = errors.New("webbot: fetch failed")
)

// Stable wire codes for the sentinels above.
const (
	CodeRobotsDenied  = "wb_robots_denied"
	CodeDepthUnstable = "wb_depth_unstable"
	CodeFetchFailed   = "wb_fetch_failed"
)

func init() {
	firewall.RegisterErrorCode(CodeDepthUnstable, ErrUnstable)
	firewall.RegisterErrorCode(CodeRobotsDenied, ErrRobotsDenied)
	firewall.RegisterErrorCode(CodeFetchFailed, ErrFetchFailed)
}
