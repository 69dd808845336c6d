package fl

// RunThrough is Run with the engine collecting through wrap(s) instead of
// the simulation itself, so a test can interpose on the transport.
func (s *Simulation) RunThrough(wrap func(Transport) Transport) (*Result, error) {
	return s.run(wrap(s))
}
