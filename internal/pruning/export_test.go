package pruning

// Indexed reports whether the per-bit index behind Locate has been built.
func (fs *FaultSpace) Indexed() bool { return fs.byBit != nil }
