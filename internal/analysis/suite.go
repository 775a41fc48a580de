package analysis

// Suite returns every analyzer enforced by aapcvet, in report order: the
// project invariants first (the fact-driven passes among them are marked
// NeedsFacts and share one interprocedural summary computation per
// package), then the port of the stock shadow pass. Stock copylocks and
// loopclosure are not ported: the `vet` target runs stock go vet, which
// covers the first, and the module's go 1.22 per-iteration loop variables
// retire the second.
func Suite() []*Analyzer {
	return []*Analyzer{
		Poolsafe,
		Determinism,
		Waitcheck,
		Noalloc,
		Copycount,
		Lockorder,
		Spscsafe,
		Shadow,
	}
}
