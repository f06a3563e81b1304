package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// Logger is the structured logger of the observability layer: a thin
// nil-safe wrapper over log/slog, so the search stack logs through the
// same disabled-by-default convention as spans, metrics and progress —
// a nil *Logger makes every call a no-op costing one pointer check, and
// instrumented code logs unconditionally.
//
// Correlate log lines with traces by attaching the surrounding span's
// identifier: `log.Info("core.run done", "span", span.ID(), ...)` — the
// same id appears as span_id in the Chrome trace export.
type Logger struct {
	sl *slog.Logger
}

// NewFlagLogger builds the logger a binary's -log and -log-level flags
// select: format text or json, "" or "off" for the disabled logger, at
// level debug, info ("" too), warn or error.
func NewFlagLogger(w io.Writer, format, level string) (*Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "off", "":
		return nil, nil
	case "text":
		return &Logger{sl: slog.New(slog.NewTextHandler(w, opts))}, nil
	case "json":
		return &Logger{sl: slog.New(slog.NewJSONHandler(w, opts))}, nil
	default:
		return nil, fmt.Errorf("unknown -log format %q (want text, json or off)", format)
	}
}

// Enabled reports whether the logger emits records at the given level
// (false on the disabled logger).
func (l *Logger) Enabled(level slog.Level) bool {
	return l != nil && l.sl.Enabled(context.Background(), level)
}

// With returns a logger whose records carry the given attributes in
// addition to per-call ones. The disabled logger stays disabled.
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{sl: l.sl.With(args...)}
}

// Debug emits a debug-level record.
func (l *Logger) Debug(msg string, args ...any) { l.log(slog.LevelDebug, msg, args) }

// Info emits an info-level record.
func (l *Logger) Info(msg string, args ...any) { l.log(slog.LevelInfo, msg, args) }

// Warn emits a warn-level record.
func (l *Logger) Warn(msg string, args ...any) { l.log(slog.LevelWarn, msg, args) }

// Error emits an error-level record.
func (l *Logger) Error(msg string, args ...any) { l.log(slog.LevelError, msg, args) }

func (l *Logger) log(level slog.Level, msg string, args []any) {
	if l == nil {
		return
	}
	l.sl.Log(context.Background(), level, msg, args...)
}
