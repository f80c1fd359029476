package service

import (
	"errors"
	"hash/fnv"
	"syscall"
	"time"

	"repro/internal/faultfs"
)

// Transient store errors — the errno classes that tend to clear on their
// own (interrupted syscalls, descriptor pressure, a filesystem briefly out
// of space while a log rotates) — are retried with capped exponential
// backoff before a job is failed. Everything else (EACCES, EROFS, a corrupt
// payload) fails fast: retrying cannot fix a permission or a bug.
//
// The jitter is deterministic (alsraclint forbids unseeded randomness in
// this package): it is derived by hashing the retry key and the attempt
// number, which decorrelates concurrent workers without an RNG.

const (
	retryAttempts  = 4 // total tries: 1 initial + 3 retries
	retryBaseDelay = 2 * time.Millisecond
	retryMaxDelay  = 250 * time.Millisecond
)

// isTransientErrno classifies an error chain by errno.
func isTransientErrno(err error) bool {
	var errno syscall.Errno
	if !errors.As(err, &errno) {
		return false
	}
	switch errno {
	case syscall.EAGAIN, syscall.EINTR, syscall.EBUSY,
		syscall.EMFILE, syscall.ENFILE, syscall.ENOSPC:
		return true
	}
	return false
}

// retrier re-runs an operation on transient errno failures. sleep and
// onRetry are injected: tests pass a no-op sleep, the manager counts
// retries into the store_retries metric.
type retrier struct {
	sleep   func(time.Duration)
	onRetry func()
}

// do runs f up to retryAttempts times. Non-transient errors (and success)
// return immediately; the final transient error is returned as-is so the
// caller's errno classification still works. Every delay flows through the
// injected sleep — there is no fallback to time.Sleep here, so a test that
// injects a recording no-op observes the exact schedule Backoff pins.
func (r *retrier) do(key string, f func() error) error {
	err := f()
	for attempt := 1; attempt < retryAttempts && err != nil && isTransientErrno(err); attempt++ {
		if r.onRetry != nil {
			r.onRetry()
		}
		if r.sleep != nil {
			r.sleep(backoffDelay(key, attempt))
		}
		err = f()
	}
	return err
}

// write is the one durable-write path of the engine: faultfs.WriteAtomic
// (temp file, fsync, rename, directory fsync) under transient-errno retry.
// A failure leaves the target untouched (old version or absent) and no temp
// residue.
func (r *retrier) write(fsys faultfs.FS, path string, data []byte) error {
	return r.do(path, func() error { return faultfs.WriteAtomic(fsys, path, data) })
}

// backoffDelay is the store retrier's schedule: Backoff at the package's
// base and cap.
func backoffDelay(key string, attempt int) time.Duration {
	return Backoff(key, attempt, retryBaseDelay, retryMaxDelay)
}

// Backoff computes the capped exponential backoff with deterministic jitter
// for one retry: the delay lies in [d/2, d] where d doubles per attempt
// (1-based) from base up to max, and the point inside the window is fixed by
// hashing (key, attempt) — FNV-1a, no RNG, so concurrent callers with
// distinct keys decorrelate while any single (key, attempt) pair always
// waits the same duration. The engine paces redispatch after a failed
// attempt with it, and the cluster client paces its network retries.
func Backoff(key string, attempt int, base, max time.Duration) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := max
	if attempt-1 < 63 {
		d = base << (attempt - 1)
	}
	if d <= 0 || d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{byte(attempt)})
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d/2 + jitter
}
