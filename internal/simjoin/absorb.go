package simjoin

// Absorb indexes table records [Indexed(), upto) without probing or
// emitting candidates. It runs the very delta UpdateSeq runs, minus the
// scan — the same frozen weight assignment, the same prefixes, summaries
// and postings — so a recovered session that replays its logged absorb
// boundaries in order rebuilds an index bit-identical to the crashed
// one. Frozen weights are per-delta frequencies, which is why recovery
// must replay the *original* boundaries rather than absorbing the whole
// table at once.
func (ix *Index) Absorb(upto int) { ix.delta(upto, nil) }
