// Typed errors across the wire.
//
// System- and service-generated failures travel between hosts as
// KindError briefcases carrying a human-readable reason in _ERROR.
// Receivers used to get back a flat errors.New of that string, which
// forced string matching ("no such file", "expired", ...) on every
// caller. The _ERRCODE folder fixes that: the sending side stamps a
// stable machine-readable code next to the reason, the receiving side
// reconstructs a *RemoteError whose errors.Is answers against the
// registered sentinel — so errors.Is(err, services.ErrNoSuchFile) is
// true even though the error crossed the network as text.
//
// The code registry is deliberately open: any package that replies
// with errors registers its sentinels (services does in an init), and
// unknown codes degrade to a plain RemoteError that still carries the
// reason string.
package firewall

import (
	"errors"
	"sync"

	"tax/internal/briefcase"
)

// FolderErrCode is the reserved folder carrying a RemoteError's stable
// machine-readable code, stamped next to the _ERROR reason.
const FolderErrCode = "_ERRCODE"

// ErrExpired is the sentinel behind the firewall's queue-timeout error
// envelopes: a parked message outlived its receiver's grace period.
var ErrExpired = errors.New("firewall: parked message expired")

// ErrPolicyDenied is the sentinel behind policy-engine deny verdicts: a
// rule (or the default-deny fall-through) refused the mediation. It
// crosses the wire as code "fw_policy_denied", so a sender on another
// host gets an errors.Is-able rejection back.
var ErrPolicyDenied = errors.New("firewall: denied by policy")

// ErrQuotaExceeded is the sentinel behind quota refusals: the sending
// principal's message or byte token bucket could not cover the send.
// Wire code "fw_quota".
var ErrQuotaExceeded = errors.New("firewall: quota exceeded")

// RemoteError is an error that crossed the wire as a KindError
// briefcase (or an _ERROR reply folder). Reason is the sender's
// human-readable message; Code, when non-empty, names the sentinel the
// originating host classified the failure as, and errors.Is matches a
// RemoteError against that registered sentinel.
type RemoteError struct {
	// Code is the stable identifier from _ERRCODE ("" when the sender
	// predates codes or the failure had no classification).
	Code string
	// Reason is the _ERROR message text.
	Reason string
}

// Error returns the remote reason text.
func (e *RemoteError) Error() string { return e.Reason }

// Is reports whether target is the sentinel registered for e.Code,
// making errors.Is work across the wire.
func (e *RemoteError) Is(target error) bool {
	if e.Code == "" {
		return false
	}
	if s, ok := codeRegistry.Load(e.Code); ok {
		return errors.Is(s.(error), target)
	}
	return false
}

// codeRegistry maps _ERRCODE values to their local sentinel errors.
var codeRegistry sync.Map // string -> error

// RegisterErrorCode binds a stable wire code to a sentinel error, in
// both directions: ErrorCode finds the code for errors wrapping the
// sentinel, and RemoteError.Is answers true for the sentinel when the
// code arrives from a remote host. Codes are global; packages register
// theirs in an init and must pick distinct names.
func RegisterErrorCode(code string, sentinel error) {
	codeRegistry.Store(code, sentinel)
}

// ErrorCode returns the registered wire code for err (matching via
// errors.Is, so wrapped sentinels classify too). ok is false when no
// registered sentinel matches.
func ErrorCode(err error) (code string, ok bool) {
	codeRegistry.Range(func(k, v any) bool {
		if errors.Is(err, v.(error)) {
			code, ok = k.(string), true
			return false
		}
		return true
	})
	return code, ok
}

// SetError records err on a reply or error briefcase: the reason in
// _ERROR and, when err classifies against a registered sentinel, the
// code in _ERRCODE.
func SetError(bc *briefcase.Briefcase, err error) {
	bc.SetString(briefcase.FolderSysError, err.Error())
	SetErrorCode(bc, err)
}

// SetErrorCode stamps only the registered code for err, leaving the
// _ERROR reason to the caller (no-op for unregistered errors).
func SetErrorCode(bc *briefcase.Briefcase, err error) {
	if code, ok := ErrorCode(err); ok {
		bc.SetString(FolderErrCode, code)
	}
}

// RemoteErrorFrom reconstructs the typed error a briefcase's _ERROR /
// _ERRCODE folders describe. ok is false when the briefcase carries no
// error.
func RemoteErrorFrom(bc *briefcase.Briefcase) (*RemoteError, bool) {
	reason, has := bc.GetString(briefcase.FolderSysError)
	if !has {
		return nil, false
	}
	code, _ := bc.GetString(FolderErrCode)
	return &RemoteError{Code: code, Reason: reason}, true
}

// Firewall error codes.
func init() {
	RegisterErrorCode("fw_denied", ErrDenied)
	RegisterErrorCode("fw_no_agent", ErrNoAgent)
	RegisterErrorCode("fw_expired", ErrExpired)
	RegisterErrorCode("fw_unsigned", ErrUnsigned)
	RegisterErrorCode("fw_channel_auth", ErrChannelAuth)
	RegisterErrorCode("fw_policy_denied", ErrPolicyDenied)
	RegisterErrorCode("fw_quota", ErrQuotaExceeded)
}
