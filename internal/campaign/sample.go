package campaign

import (
	"fmt"
	"math/rand"

	"faultspace/internal/pruning"
	"faultspace/internal/trace"
)

// SampleMode selects what population a sampling campaign draws from.
type SampleMode uint8

// Sampling modes.
const (
	// SampleRaw draws (slot, bit) coordinates uniformly from the raw,
	// unpruned fault space of size w = Δt·Δm — the statistically correct
	// procedure (§III-E). Coordinates falling into known-No-Effect regions
	// are counted as "No Effect" without running an experiment; coordinates
	// falling into the same equivalence class share one experiment.
	SampleRaw SampleMode = iota + 1

	// SampleEffective draws uniformly from the reduced population
	// w′ = w − knownNoEffect (§V-C, Corollary 1): sampling from
	// known-No-Effect regions is pointless for failure estimation, so the
	// sampler rejects such coordinates. Extrapolation must then use w′.
	SampleEffective

	// SampleClasses draws equivalence *classes* uniformly — the biased
	// procedure of Pitfall 2. Every class is equally likely regardless of
	// its weight, so the estimate is skewed by exactly the correlation
	// between class size and outcome that Pitfall 1 describes.
	SampleClasses
)

// String returns the mode name.
func (m SampleMode) String() string {
	switch m {
	case SampleRaw:
		return "raw"
	case SampleEffective:
		return "effective"
	case SampleClasses:
		return "classes(biased)"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// SampleResult is the outcome of a sampling campaign.
type SampleResult struct {
	Mode SampleMode
	N    int   // number of samples drawn
	Seed int64 // PRNG seed, for reproducibility

	// Counts is the per-outcome count over the N draws, by base outcome
	// (attack flag stripped). Draws sharing an equivalence class all
	// count (one experiment, many samples).
	Counts [NumOutcomes]uint64

	// Attacks is the number of draws whose outcome satisfied the
	// campaign's attacker objective (always 0 without one).
	Attacks uint64

	// Population is the size of the population sampled from: w for
	// SampleRaw, w′ for SampleEffective, the class count for SampleClasses.
	// Extrapolated counts are Counts[o]/N × Population (§V-C, Corollary 2);
	// metrics.ExtrapolateFailures(Population, Failures(), N) is the
	// extrapolated failure count.
	Population uint64

	// Experiments is the number of fault-injection runs actually executed
	// (unique equivalence classes hit).
	Experiments int
}

// Failures returns the number of non-benign draws.
func (sr *SampleResult) Failures() uint64 { return NonBenign(sr.Counts) }

// SampleScan runs a sampling campaign of n draws with the given mode and
// deterministic seed. The experiments run through RunClasses, so cfg's
// execution knobs, progress stream, telemetry and Context apply to
// them exactly as in a scan.
func SampleScan(t Target, golden *trace.Golden, fs *pruning.FaultSpace, cfg Config, mode SampleMode, n int, seed int64) (*SampleResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("campaign: sample size %d must be positive", n)
	}
	if fs.Cycles == 0 || fs.Bits == 0 {
		return nil, fmt.Errorf("campaign: empty fault space")
	}

	sr := &SampleResult{Mode: mode, N: n, Seed: seed}
	switch mode {
	case SampleRaw:
		sr.Population = fs.Size()
	case SampleEffective:
		sr.Population = fs.ExperimentWeight()
		if sr.Population == 0 {
			return nil, fmt.Errorf("campaign: no effective population (all coordinates known No Effect)")
		}
	case SampleClasses:
		sr.Population = uint64(len(fs.Classes))
		if len(fs.Classes) == 0 {
			return nil, fmt.Errorf("campaign: no equivalence classes to sample")
		}
	default:
		return nil, fmt.Errorf("campaign: unknown sample mode %d", mode)
	}

	// Draws never depend on outcomes, so draw all n coordinates first
	// (-1 = a known-No-Effect coordinate, no experiment), run the unique
	// classes hit once through the scan driver, then tally in draw order.
	rng := rand.New(rand.NewSource(seed))
	draws := make([]int, n)
	hit := make(map[int]struct{})
	for i := range draws {
		ci := -1
		if mode == SampleClasses {
			ci = rng.Intn(len(fs.Classes))
		} else {
			// SampleEffective rejection-samples the raw space until a
			// coordinate lands in an equivalence class; this draws
			// uniformly from w′.
			for {
				slot := uint64(rng.Int63n(int64(fs.Cycles))) + 1
				bit := uint64(rng.Int63n(int64(fs.Bits)))
				c, inClass, err := fs.Locate(slot, bit)
				if err != nil {
					return nil, err
				}
				if inClass {
					ci = c
				}
				if inClass || mode == SampleRaw {
					break
				}
			}
		}
		draws[i] = ci
		if ci >= 0 {
			hit[ci] = struct{}{}
		}
	}
	classes := make([]int, 0, len(hit))
	for ci := range hit {
		classes = append(classes, ci)
	}
	outcomes, err := RunClasses(t, golden, fs, cfg, classes)
	if err != nil {
		return nil, err
	}
	for _, ci := range draws {
		o := OutcomeNoEffect
		if ci >= 0 {
			o = outcomes[ci]
		}
		sr.Counts[o.Base()]++
		if o.Attack() {
			sr.Attacks++
		}
	}
	sr.Experiments = len(classes)
	return sr, nil
}
