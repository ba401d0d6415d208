package cache

// CheckInvariants exposes the internal consistency checker to the external
// conformance tests in package cache_test (and, through them, the simcheck
// harness): list linkage, index agreement, set mapping, dirty-implies-valid
// and the resident count.
func (c *Cache) CheckInvariants() error { return c.checkInvariants() }

// StateEqual exposes logical state equality (see Cache.stateEqual) to the
// external state tests.
func (s *System) StateEqual(o *System) bool { return s.stateEqual(o) }

// StateEqual exposes the fan-out engine's logical state equality to the
// external state tests.
func (f *FanoutSystem) StateEqual(o *FanoutSystem) bool { return f.stateEqual(o) }

// Shadowed reports whether the cache's 3C tracker runs a shadow cache; it
// is false when attribution is off or the cache is its own shadow.
func (c *Cache) Shadowed() bool { return c.causes != nil && c.causes.shadow != nil }
