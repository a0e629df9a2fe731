// Package oberr defines the typed error vocabulary shared by every
// tier of the system — enclave store, journal, engine, server, wire
// protocol, client, and database/sql driver.
//
// The design goal is end-to-end classification: a transient untrusted
// host fault injected below the enclave boundary must surface to a
// remote client as the SAME stable code it was born with, so the
// client (or an application) can decide mechanically whether retrying
// can help. Codes therefore travel across the wire (every TError frame
// carries one after its message) and each code has a fixed
// Retriable classification.
//
// Nothing here may depend on data values: a code describes the kind of
// failure (host fault, overload, shutdown, lost connection), never the
// content of the statement that hit it. DESIGN.md §17 makes the
// leakage argument for error paths as a whole.
package oberr

import (
	"errors"
	"fmt"
)

// Code is a stable error classification, carried end-to-end from the
// failing tier to the client. Values are part of the wire protocol:
// never renumber existing codes, only append.
type Code uint16

const (
	// CodeUnknown is the zero value: an error with no classification,
	// including every error produced before this vocabulary existed.
	// Unknown errors are never retriable.
	CodeUnknown Code = 0

	// CodeStoreFault is a transient fault of the untrusted host —
	// a failed sealed-block access or journal write. The mutation it
	// interrupted was rolled back; retrying the statement is safe.
	CodeStoreFault Code = 1

	// CodeAuth is a sealed-block authentication failure: tampering or
	// rollback by a malicious host. Never retriable — the store is
	// hostile, not unlucky.
	CodeAuth Code = 2

	// CodeOverload is a typed admission rejection: the server's bounded
	// statement queue stayed full past the admission timeout. The
	// statement was never executed; retry after backoff.
	CodeOverload Code = 3

	// CodeShutdown is the typed shutdown rejection: the server is
	// draining and accepted no new work. The statement was never
	// executed; retry (against a restarted server) is safe.
	CodeShutdown Code = 4

	// CodeConnLost is an ambiguous failure: the connection died after
	// the request may have been sent, so a mutation may or may not have
	// executed. Retriable for read-only statements only.
	CodeConnLost Code = 5

	// CodeUnavailable is an unambiguous delivery failure: the request
	// was provably never sent (no healthy connection, or the write
	// failed before any byte left). Safe to retry even for mutations.
	CodeUnavailable Code = 6

	// CodeEngineFailed means fault containment itself failed: a rollback
	// hit a second fault and the in-memory engine state can no longer be
	// trusted. Not retriable on this engine — recover from the journal.
	CodeEngineFailed Code = 7
)

// String names the code for logs and error text. The set is closed;
// unknown values render numerically.
func (c Code) String() string {
	switch c {
	case CodeUnknown:
		return "unknown"
	case CodeStoreFault:
		return "store_fault"
	case CodeAuth:
		return "auth"
	case CodeOverload:
		return "overload"
	case CodeShutdown:
		return "shutdown"
	case CodeConnLost:
		return "conn_lost"
	case CodeUnavailable:
		return "unavailable"
	case CodeEngineFailed:
		return "engine_failed"
	}
	return fmt.Sprintf("code_%d", uint16(c))
}

// Retriable reports whether an error with this code may succeed if the
// whole statement is retried. CodeConnLost is listed retriable here
// because the CLASS can help on retry; callers that might re-execute a
// mutation must additionally check the ambiguity themselves (the
// client only auto-retries CodeConnLost for read-only statements).
func (c Code) Retriable() bool {
	switch c {
	case CodeStoreFault, CodeOverload, CodeShutdown, CodeConnLost, CodeUnavailable:
		return true
	}
	return false
}

// Error is the typed error every tier wraps failures in. It holds a
// classification code, a human-readable message, and optionally the
// underlying cause for errors.Is/As chains.
type Error struct {
	Code Code
	Msg  string
	Err  error // wrapped cause, may be nil
}

// New builds a typed error with a formatted message and no wrapped
// cause.
func New(c Code, format string, args ...any) *Error {
	return &Error{Code: c, Msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a classification to an existing error, preserving it
// for errors.Is/As.
func Wrap(c Code, err error) *Error {
	return &Error{Code: c, Err: err}
}

// Wrapf is Wrap with a context message prefixed to the cause.
func Wrapf(c Code, err error, format string, args ...any) *Error {
	return &Error{Code: c, Msg: fmt.Sprintf(format, args...), Err: err}
}

func (e *Error) Error() string {
	switch {
	case e.Msg != "" && e.Err != nil:
		return e.Msg + ": " + e.Err.Error()
	case e.Err != nil:
		return e.Err.Error()
	}
	return e.Msg
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Retriable reports whether retrying the failed statement may succeed.
func (e *Error) Retriable() bool { return e.Code.Retriable() }

// CodeOf extracts the classification from an error chain; CodeUnknown
// when no *Error is present.
func CodeOf(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return CodeUnknown
}

// Retriable reports whether the error chain carries a retriable
// classification. Unclassified errors are not retriable.
func Retriable(err error) bool {
	return CodeOf(err).Retriable()
}
