package campaign

// Counts is a result's outcomes tallied by base outcome (attack flag
// stripped), unweighted and weighted, plus the outcomes that satisfied
// the campaign's attacker objective.
type Counts struct {
	// Classes is the number of equivalence classes per outcome — the
	// "unweighted result accounting" that Pitfall 1 warns about when fed
	// into coverage formulas.
	Classes [NumOutcomes]uint64
	// Weights is, per outcome, the total fault-space weight of the
	// classes with that outcome: every experiment result expanded to the
	// size of its equivalence class (the correct accounting per Pitfall
	// 1). Known-No-Effect coordinates are NOT included; add
	// Space.KnownNoEffect to OutcomeNoEffect for the full-space view,
	// whose counts sum to w = Δt·Δm.
	Weights [NumOutcomes]uint64
	// AttackClasses and AttackWeight count the classes whose outcome
	// satisfied the attacker objective (0 when no objective was set).
	// AttackWeight is the extrapolated count of raw (cycle, bit)
	// coordinates at which the injected fault achieves the objective —
	// the attack-surface analogue of the failure weight. Known-No-Effect
	// coordinates never contribute: a fault without any effect cannot
	// satisfy an objective (every builtin objective requires an
	// observable deviation).
	AttackClasses, AttackWeight uint64
}

// Count tallies the result's outcomes in one pass over them. The failure
// counts follow from it: NonBenign(c.Classes) is the raw "F" a naive
// unweighted analysis would report, NonBenign(c.Weights) the extrapolated
// absolute failure count F of §V — the paper's proposed comparison
// metric, P(Failure) ∝ F (Equation 6).
func (r *Result) Count() Counts {
	var c Counts
	for i, o := range r.Outcomes {
		w := r.Space.Classes[i].Weight()
		c.Classes[o.Base()]++
		c.Weights[o.Base()] += w
		if o.Attack() {
			c.AttackClasses++
			c.AttackWeight += w
		}
	}
	return c
}

// NonBenign sums per-outcome counts over the non-benign outcomes: the
// failure count of a scan, a sample or a progress event, unweighted or
// weighted as the counts are.
func NonBenign(counts [NumOutcomes]uint64) uint64 {
	var n uint64
	for o, c := range counts {
		if !Outcome(o).Benign() {
			n += c
		}
	}
	return n
}
