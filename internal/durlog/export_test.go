package durlog

// Segments returns the number of segment files.
func (l *Log) Segments() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.segs)
}
