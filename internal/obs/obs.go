// Package obs is the evaluation stack's observability layer: structured
// logging (log/slog) with request-scoped loggers and request IDs carried by
// context, lightweight per-stage span tracing, a minimal Prometheus
// text-format metrics registry, and the Sink interface through which the
// simulation engines report events without paying for them when nobody is
// listening.
//
// The package depends only on the standard library, and nothing in it is
// mandatory: every context accessor returns a usable zero-cost default (a
// discarding logger, a nil trace whose spans are no-ops, a nil sink), so
// the engine and experiment layers can call into obs unconditionally while
// batch callers that never install anything observe no behaviour change.
// See DESIGN.md §8.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
)

// ctxKey is the private type for this package's context keys.
type ctxKey int

const (
	loggerKey ctxKey = iota
	requestIDKey
	traceKey
	sinkKey
)

// discardLogger drops every record. Implemented here rather than with
// slog.DiscardHandler so the module keeps building on Go 1.22 (the CI
// matrix's floor; DiscardHandler arrived in 1.24).
var discardLogger = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// NopLogger returns a logger that discards every record.
func NopLogger() *slog.Logger { return discardLogger }

// WithLogger returns a context carrying the given logger. Handlers attach a
// request-scoped logger (typically pre-seeded with the request ID) so that
// code deeper in the stack logs with the request's identity attached.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey, l)
}

// Logger returns the context's logger, or a discarding logger when none
// (or a nil one) was installed. It never returns nil.
func Logger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey).(*slog.Logger); ok && l != nil {
		return l
	}
	return discardLogger
}

// WithRequestID returns a context carrying a request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request ID, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-digit request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed ID
		// keeps logging functional.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether a client-supplied request ID is safe to
// echo into logs and headers: 1-64 characters drawn from [A-Za-z0-9._-].
// Anything else is rejected and replaced server-side, which keeps log
// injection (newlines, control bytes) and unbounded header growth out.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}
