package chaos

import (
	"fmt"
	"net"
	"sync"

	"badabing/internal/wire"
)

// FlakyReflector is a wire.Reflector harness that can fail the way real
// measurement infrastructure does: it can hang (socket open, nothing
// comes back — a blackhole), die (socket closed — connected senders see
// ICMP refused), and restart on the same address mid-session. Its socket
// is wrapped in an ImpairedConn, so a "merely lossy" profile can be
// layered under the life-cycle faults.
type FlakyReflector struct {
	inF, outF Fault
	seed      int64

	mu    sync.Mutex
	addr  *net.UDPAddr // pinned on first Start so restarts reuse the port
	conn  *ImpairedConn
	refl  *wire.Reflector
	runs  int
	alive bool
}

// NewFlakyReflector prepares a reflector with the given steady-state
// impairment profiles. Call Start to bind and begin echoing.
func NewFlakyReflector(inbound, outbound Fault, seed int64) *FlakyReflector {
	return &FlakyReflector{inF: inbound, outF: outbound, seed: seed}
}

// Start binds (127.0.0.1, ephemeral on the first call, the same port on
// restarts) and starts echoing.
func (f *FlakyReflector) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.alive {
		return fmt.Errorf("chaos: reflector already running")
	}
	laddr := f.addr
	if laddr == nil {
		laddr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return fmt.Errorf("chaos: reflector bind %v: %w", laddr, err)
	}
	f.addr = pc.LocalAddr().(*net.UDPAddr)
	// Each incarnation advances the seed so restarts do not replay the
	// previous life's fault pattern.
	f.conn = Wrap(pc, f.inF, f.outF, f.seed+int64(f.runs))
	f.refl = wire.NewReflector(f.conn)
	f.runs++
	f.alive = true
	go f.refl.Run()
	return nil
}

// Addr returns the reflector's address (stable across restarts).
func (f *FlakyReflector) Addr() net.Addr {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addr
}

// Hang blackholes the reflector: the socket stays open (so senders get no
// ICMP hint) but nothing is echoed or answered — the failure mode a
// liveness watchdog exists for.
func (f *FlakyReflector) Hang() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.conn != nil {
		f.conn.SetInbound(Fault{Drop: 1})
		f.conn.SetOutbound(Fault{Drop: 1})
	}
}

// Kill closes the socket: the reflector process "crashes". Connected
// senders on loopback observe ECONNREFUSED write failures. Start brings
// it back on the same port.
func (f *FlakyReflector) Kill() {
	f.mu.Lock()
	refl := f.refl
	f.alive = false
	f.mu.Unlock()
	if refl != nil {
		refl.Close()
	}
}

// Alive reports whether the reflector is currently echoing.
func (f *FlakyReflector) Alive() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.alive
}
