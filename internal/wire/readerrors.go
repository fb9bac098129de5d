package wire

import (
	"errors"
	"sync"
	"syscall"
)

// errorNote deduplicates transient-read-error surfacing for the
// reflector loops. Those loops must keep serving through
// transient errors (ICMP-unreachable bursts from vanished peers), but
// silently swallowing them hid real misconfiguration: a persistent
// EMSGSIZE-class error (oversized datagrams bouncing off the socket,
// e.g. after an MTU or profile change) would previously spin unseen
// forever. The note surfaces each *new* error class exactly once — the
// hook fires when the class changes, not per packet — and keeps a
// monotone running count for metrics.
type errorNote struct {
	mu        sync.Mutex
	hook      func(error)
	lastClass string
	count     uint64
}

// setHook installs the surfacing callback (e.g. a daemon's logger).
// Install before the read loop starts.
func (n *errorNote) setHook(hook func(error)) {
	n.mu.Lock()
	n.hook = hook
	n.mu.Unlock()
}

// note records a transient read error, invoking the hook if its class
// differs from the previous error's (so a persistent condition surfaces
// once, and surfaces again if it changes — e.g. unreachable → message
// too long after a profile swap).
func (n *errorNote) note(err error) {
	class := errClass(err)
	n.mu.Lock()
	n.count++
	fire := class != n.lastClass
	n.lastClass = class
	hook := n.hook
	n.mu.Unlock()
	if fire && hook != nil {
		hook(err)
	}
}

// snapshot returns the running count and the current error class.
func (n *errorNote) snapshot() (uint64, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.count, n.lastClass
}

// errClass collapses an error to a stable class key: the errno name when
// one is buried in the chain (EMSGSIZE, ECONNREFUSED, …), else the
// error text.
func errClass(err error) string {
	var errno syscall.Errno
	if errors.As(err, &errno) {
		return errno.Error()
	}
	return err.Error()
}
