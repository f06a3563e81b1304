// Package retry implements capped exponential backoff, attempt budgets,
// and error classification for the self-healing sweep layer.
//
// Classification splits failures into two classes: retryable I/O faults
// (a full disk, a torn write, an interrupted system call) where re-running
// the job after a pause makes progress because the journal resume path
// restores every completed row, and permanent spec faults (an unparsable
// design document, an unknown figure) where re-running burns the budget
// to reach the same error. Wrap errors with Retryable/Permanent to
// override the default classification; unmarked errors default to
// permanent, so only faults the storage layer recognizes as transient are
// retried.
package retry

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
	"time"
)

// Policy is a backoff schedule plus an attempt budget. The zero value is
// not useful; fill in MaxAttempts at minimum and Delay applies defaults
// for the rest.
type Policy struct {
	// MaxAttempts is the total attempt budget including the first run.
	// A policy with MaxAttempts <= 1 never retries.
	MaxAttempts int
	// BaseDelay is the pause before the first retry (default 250ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 10s).
	MaxDelay time.Duration
}

// Delay returns the pause before re-running after the given failed
// attempt (1-based): BaseDelay doubled per attempt, capped at MaxDelay.
func (p Policy) Delay(attempt int) time.Duration {
	d, max := p.BaseDelay, p.MaxDelay
	if d <= 0 {
		d = 250 * time.Millisecond
	}
	if max <= 0 {
		max = 10 * time.Second
	}
	for n := 1; n < attempt && d < max; n++ {
		d *= 2
	}
	return min(d, max)
}

// Exhausted reports whether the budget is spent after the given number
// of attempts.
func (p Policy) Exhausted(attempts int) bool {
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	return attempts >= max
}

type marked struct {
	err       error
	retryable bool
}

func (m *marked) Error() string { return m.err.Error() }
func (m *marked) Unwrap() error { return m.err }

// Retryable marks err as retryable regardless of its type.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, retryable: true}
}

// Permanent marks err as permanent regardless of its type.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, retryable: false}
}

// transientErrnos are the I/O conditions worth re-running a job for: the
// disk may drain (ENOSPC), the contended resource may free (EAGAIN,
// EBUSY), or the glitch may not recur (EIO, EINTR, broken pipes and
// reset connections from a co-process).
var transientErrnos = []syscall.Errno{
	syscall.ENOSPC, syscall.EAGAIN, syscall.EBUSY, syscall.EINTR,
	syscall.EIO, syscall.EPIPE, syscall.ECONNRESET, syscall.ETIMEDOUT,
}

// IsRetryable classifies err. Explicit Retryable/Permanent marks win
// (innermost-first via errors.As); otherwise transient I/O errors —
// short writes and the errnos above, however deeply wrapped — are
// retryable, and everything else (spec errors, validation errors,
// panics) is permanent.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var m *marked
	if errors.As(err, &m) {
		return m.retryable
	}
	if errors.Is(err, io.ErrShortWrite) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	if errors.Is(err, fs.ErrPermission) {
		return false
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		for _, t := range transientErrnos {
			if errno == t {
				return true
			}
		}
	}
	return false
}
