package bipartite

// EdgeScans returns how many adjacency entries m's augmenting searches
// have examined since it was built.
func (m *Matcher) EdgeScans() int64 { return m.scans }
