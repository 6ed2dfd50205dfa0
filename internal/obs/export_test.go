package obs

// Dropped reports how many events the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }
