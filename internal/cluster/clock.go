package cluster

import "time"

// Clock is the node's time source. Membership liveness — lease renewal
// times, failover deadlines — is wall-clock by nature, but simulation
// and unit tests need to drive lease expiry deterministically, so every
// time read in the package goes through the configured Clock.
type Clock interface {
	Now() time.Time
}

// systemClock is the default Clock and the package's single wall-clock
// read site. Analysis results never observe it, so the determinism rule
// is suppressed here and only here.
type systemClock struct{}

func (systemClock) Now() time.Time {
	return time.Now() //gblint:ignore determinism membership liveness is wall-clock control-plane state; simulation outputs never read it
}

// now reads the node's configured clock.
func (n *Node) now() time.Time { return n.cfg.Clock.Now() }
