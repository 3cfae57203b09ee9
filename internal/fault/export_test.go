package fault

// Plans returns the shipped named plans, keyed by name.
func Plans() map[string]Plan {
	out := make(map[string]Plan, len(plans))
	for k, v := range plans {
		out[k] = v
	}
	return out
}

// Lost returns the total number of cycles the layer made unhearable.
func (s Stats) Lost() int64 { return s.Dropped + s.Corrupted + s.Truncated + s.Burst }

// Stats returns what the mangler has done to the stream so far.
func (m *Mangler) Stats() Stats { return m.l.stats }

// Stats returns what the injector has done to the stream so far.
func (in *Injector) Stats() Stats { return in.l.stats }
