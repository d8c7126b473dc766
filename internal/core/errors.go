package core

import (
	"errors"
	"fmt"
)

// ErrorKind classifies an analysis failure.
type ErrorKind int

// Error kinds.
const (
	// ErrInternal is an unexpected failure inside the analyzer
	// (including context cancellation, which stays reachable through
	// errors.Is via Unwrap). The zero value, so an Error built without
	// an explicit kind reports internal.
	ErrInternal ErrorKind = iota
	// ErrParse is a front-end failure: lexing, parsing, or type
	// checking rejected the input sources.
	ErrParse
	// ErrResolve is a resolution failure: an entry function or other
	// named root does not exist in the program.
	ErrResolve
	// ErrConfig is an invalid Options value or request shape
	// (Options.Validate failures, duplicate source paths, unreadable
	// inputs).
	ErrConfig
	// ErrOverload is an admission-control rejection: the analysis
	// service's worker pool and queue are full, or the request's
	// deadline expired while it waited for a slot.
	ErrOverload
	// ErrSnapshotGone is a failed delta, explain or query request: the
	// result the request named has been evicted or was never computed.
	// The request itself is well formed — re-running with full sources
	// succeeds.
	ErrSnapshotGone
)

// String names the kind.
func (k ErrorKind) String() string {
	switch k {
	case ErrParse:
		return "parse"
	case ErrResolve:
		return "resolve"
	case ErrConfig:
		return "config"
	case ErrOverload:
		return "overload"
	case ErrSnapshotGone:
		return "snapshot_gone"
	default:
		return "internal"
	}
}

// Error is the typed failure returned from every exported analysis
// entry point. The message text is unchanged from the untyped errors
// earlier releases returned; callers that matched on strings keep
// working, and callers can now branch on Kind with errors.As, or with
// errors.Is against a kind-only sentinel:
//
//	var aerr *core.Error
//	if errors.As(err, &aerr) && aerr.Kind == core.ErrOverload { ... }
//	if errors.Is(err, &core.Error{Kind: core.ErrOverload}) { ... }
type Error struct {
	// Kind classifies the failure.
	Kind ErrorKind
	// Pos is the source position ("file.c:3:4") when known, else "".
	Pos string
	// Msg is the human-readable message.
	Msg string
	// Err is the wrapped cause, when there is one (an os error, a
	// context cancellation); reachable through errors.Unwrap.
	Err error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	if e.Err != nil {
		return e.Err.Error()
	}
	return e.Kind.String() + " error"
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Is lets a kind-only Error act as a sentinel: errors.Is(err,
// &Error{Kind: ErrOverload}) matches any overload error regardless of
// message and position.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	if t.Msg != "" && t.Msg != e.Msg {
		return false
	}
	if t.Pos != "" && t.Pos != e.Pos {
		return false
	}
	return t.Kind == e.Kind
}

// Errf builds an Error with a formatted message. pos may be empty.
func Errf(kind ErrorKind, pos, format string, args ...interface{}) *Error {
	return &Error{Kind: kind, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// WrapError attaches a kind to an existing error, preserving its
// message text. A nil err stays nil and an error that already is (or
// wraps) an *Error is returned unchanged, so double-wrapping at layer
// boundaries is harmless.
func WrapError(kind ErrorKind, err error) error {
	if err == nil {
		return nil
	}
	var typed *Error
	if errors.As(err, &typed) {
		return err
	}
	return &Error{Kind: kind, Msg: err.Error(), Err: err}
}
