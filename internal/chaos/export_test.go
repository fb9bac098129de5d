package chaos

// Delivered returns how many packets came out the other side (duplicates
// add, drops subtract).
func (s Stats) Delivered() uint64 {
	return s.Packets - s.Dropped - s.BurstDropped + s.Duplicated
}

// InboundStats returns the inbound direction's fault tallies.
func (c *ImpairedConn) InboundStats() Stats {
	c.in.mu.Lock()
	defer c.in.mu.Unlock()
	return c.in.stats
}

// OutboundStats returns the outbound direction's fault tallies.
func (c *ImpairedConn) OutboundStats() Stats {
	c.out.mu.Lock()
	defer c.out.mu.Unlock()
	return c.out.stats
}

// Alive reports whether the reflector is currently echoing.
func (f *FlakyReflector) Alive() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.alive
}
