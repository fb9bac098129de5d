package chaos

import (
	"errors"
	"sync"
	"time"

	"badabing/internal/store"
)

// ErrDiskFull is the injected failure FaultySink returns while a fault
// window is open — the canonical "archive disk filled up" condition the
// store circuit breaker exists for.
var ErrDiskFull = errors.New("chaos: injected disk full")

// eventSink is the registry's durable-event interface, declared
// structurally so the chaos package does not import fleet (fleet's own
// tests import chaos). *store.Store, *store.Mem and fleet.BreakerSink
// all satisfy it.
type eventSink interface {
	SessionCreated(id string, at time.Time, cfgJSON []byte, seed int64) error
	SessionState(id string, at time.Time, state string, terminal bool, errMsg string, retries int, seed int64) error
	SessionPoint(id string, p store.Point) error
	RegistryTotals(t store.Totals) error
}

// FaultySink is a failing-disk injector for the measurement archive: it
// wraps a sink (typically *store.Store) and, while a fault window is
// open, fails every append with the injected error instead of
// forwarding — the event never reaches the WAL, exactly like a write
// against a full or dying disk. It satisfies fleet.Sink, so a
// BreakerSink can wrap it to exercise trip/spill/replay, and it
// forwards Close to the inner sink.
type FaultySink struct {
	inner eventSink

	mu  sync.Mutex
	err error // non-nil while the fault window is open
}

// NewFaultySink wraps inner with writes initially healthy.
func NewFaultySink(inner eventSink) *FaultySink {
	return &FaultySink{inner: inner}
}

// FailWrites opens a fault window: every append fails with err
// (ErrDiskFull when nil) until RecoverWrites.
func (f *FaultySink) FailWrites(err error) {
	if err == nil {
		err = ErrDiskFull
	}
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

// RecoverWrites closes the fault window; appends forward again.
func (f *FaultySink) RecoverWrites() {
	f.mu.Lock()
	f.err = nil
	f.mu.Unlock()
}

// fail returns the injected error while the window is open.
func (f *FaultySink) fail() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// SessionCreated implements the sink interface.
func (f *FaultySink) SessionCreated(id string, at time.Time, cfgJSON []byte, seed int64) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.inner.SessionCreated(id, at, cfgJSON, seed)
}

// SessionState implements the sink interface.
func (f *FaultySink) SessionState(id string, at time.Time, state string, terminal bool, errMsg string, retries int, seed int64) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.inner.SessionState(id, at, state, terminal, errMsg, retries, seed)
}

// SessionPoint implements the sink interface.
func (f *FaultySink) SessionPoint(id string, p store.Point) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.inner.SessionPoint(id, p)
}

// RegistryTotals implements the sink interface.
func (f *FaultySink) RegistryTotals(t store.Totals) error {
	if err := f.fail(); err != nil {
		return err
	}
	return f.inner.RegistryTotals(t)
}

// Unwrap exposes the inner sink so query interfaces (history, stats)
// resolve through the injector.
func (f *FaultySink) Unwrap() any { return f.inner }

// Close closes the inner sink if it is closable. Close is never
// injected: a full disk does not break shutdown.
func (f *FaultySink) Close() error {
	if c, ok := f.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
