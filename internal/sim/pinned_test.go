package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"cdsf/internal/availability"
	"cdsf/internal/dls"
	"cdsf/internal/pmf"
	"cdsf/internal/stats"
)

// pinnedRun is one RunManyContext configuration whose outputs are
// pinned by TestRunManyBitsPinned.
type pinnedRun struct {
	name  string
	tech  string
	model func() availability.Model
	prof  Profile
	steps int
	gated bool
	seed  uint64
}

// pinnedRuns covers iteration profiles, time-stepped runs (one with the
// weight-carrying AWF), per-repetition release gates and the Static,
// Redraw and Markov models.
func pinnedRuns() []pinnedRun {
	load := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	return []pinnedRun{
		{"FAC markov peaked", "FAC", func() availability.Model {
			return availability.Markov{PMF: load, Interval: 25, Persistence: 0.5}
		}, PeakedProfile, 1, false, 7},
		{"AWF redraw 3 sweeps", "AWF", func() availability.Model {
			return availability.Redraw{PMF: load, Interval: 25}
		}, nil, 3, false, 8},
		{"AF static gated", "AF", func() availability.Model {
			return availability.Static{PMF: load}
		}, nil, 1, true, 9},
		{"WF markov increasing 3 sweeps gated", "WF", func() availability.Model {
			return availability.Markov{PMF: load, Interval: 40, Persistence: 0.25}
		}, IncreasingProfile, 3, true, 10},
		{"STATIC redraw decreasing", "STATIC", func() availability.Model {
			return availability.Redraw{PMF: load, Interval: 30}
		}, DecreasingProfile, 1, false, 11},
	}
}

// pinnedBits runs p for six repetitions and returns its outputs as bits:
// every makespan, then MeanChunks and MeanImbalance.
func pinnedBits(t *testing.T, p pinnedRun) []uint64 {
	t.Helper()
	const reps = 6
	tech, err := dls.ByName(p.tech)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		SerialIters:      12,
		ParallelIters:    240,
		Workers:          4,
		IterTime:         stats.NewNormal(1, 0.3),
		IterProfile:      p.prof,
		Avail:            p.model(),
		Technique:        tech,
		Overhead:         0.5,
		TimeSteps:        p.steps,
		WeightsFromAvail: true,
		BestMaster:       true,
		Seed:             p.seed,
	}
	if p.gated {
		cfg.Releases = make([]float64, reps)
		for r := range cfg.Releases {
			cfg.Releases[r] = float64(r*5) + 0.25
		}
	}
	s, err := RunManyContext(context.Background(), cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 0, reps+2)
	for _, m := range s.Makespans {
		out = append(out, math.Float64bits(m))
	}
	return append(out, math.Float64bits(s.MeanChunks), math.Float64bits(s.MeanImbalance))
}

// TestRunManyBitsPinned pins RunManyContext's outputs to values recorded
// when every run still drew its iteration costs inline, before
// RunArmsContext and the shared cost vector existed: the seeds, the
// draw order and the summation order of a single-technique run have
// not moved. The SharedLoad model is left out because its shared chain
// has since been made a function of time.
func TestRunManyBitsPinned(t *testing.T) {
	want := map[string][]uint64{
		"FAC markov peaked":                   {0x40601bb490cb4561, 0x405a0fe94cbf96c8, 0x40584c73a3279a9c, 0x40630d6ce09b3507, 0x40531c3c1cea4dba, 0x405a615f5143822d, 0x403b000000000000, 0x3fc20cb3d1e8e471},
		"AWF redraw 3 sweeps":                 {0x40724069d94f8253, 0x407439162037b65c, 0x4075e33877c7e770, 0x407454305e5468c7, 0x4074444f17780434, 0x40733be7255fd8a9, 0x40564aaaaaaaaaab, 0x3fb055162ad46ea9},
		"AF static gated":                     {0x405c3e9e344d16f1, 0x4056b074b49ad2a1, 0x405be3cb108532ce, 0x4069fa8f6ba1f698, 0x40606527ec493a15, 0x405d2dcafda04cc1, 0x403cd55555555555, 0x3fa7a6d7dabe1d44},
		"WF markov increasing 3 sweeps gated": {0x40733b968ace9afd, 0x40747a54260cf68a, 0x4073066e8aaeb26c, 0x40766c4ea755d512, 0x4076efc171616d39, 0x407645df817b7d0d, 0x4058f55555555555, 0x3fb338ca0bed0d83},
		"STATIC redraw decreasing":            {0x405dbb062aa0498e, 0x4066059fcbd298b0, 0x40642f7be957c544, 0x405e7a57ef4bf4e0, 0x4061eafc0d1514a2, 0x4062c6021feefe6f, 0x4010000000000000, 0x3fe1ecc66b2b841f},
	}
	for _, p := range pinnedRuns() {
		if got := pinnedBits(t, p); !slices.Equal(got, want[p.name]) {
			t.Errorf("%s: RunManyContext bits %#x, pinned %#x", p.name, got, want[p.name])
		}
	}
}

// armsPin is one RunArmsContext (or, with a single technique,
// RunManyContext) configuration pinned by TestArmsBitsPinned.
type armsPin struct {
	name  string
	techs []string
	cfg   Config
	reps  int
	gated bool // give every arm its own per-repetition release times
}

// armsPins covers what the draw path distinguishes: shared and
// dispatch-time costs, multi-sweep runs with AWF's carried weights, an
// iteration profile on a distribution whose non-positive draws are
// redrawn, release-gated arms, a truncated normal wide enough that
// Truncated falls back to its quantile transform, and a run above
// maxSharedCosts.
func armsPins() []armsPin {
	load := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	// The truncation core.RunScenarioContext applies to a Stage-II cell's
	// iteration times, at a coefficient of variation cv.
	truncated := func(cv float64) stats.Dist {
		return stats.Truncated{Dist: stats.NewNormal(1, cv), Lo: 1e-3, Hi: 1e3}
	}
	base := Config{
		SerialIters:      12,
		ParallelIters:    240,
		Workers:          4,
		IterTime:         truncated(0.3),
		Avail:            availability.Markov{PMF: load, Interval: 25, Persistence: 0.5},
		Overhead:         0.5,
		WeightsFromAvail: true,
		BestMaster:       true,
	}
	awf := base
	awf.TimeSteps, awf.Seed = 3, 21
	profiled := base
	profiled.IterTime = stats.NewNormal(1, 0.5)
	profiled.IterProfile = PeakedProfile
	profiled.Avail = availability.Redraw{PMF: load, Interval: 30}
	profiled.Seed = 22
	gated := base
	gated.Seed = 23
	fallback := base
	fallback.SerialIters, fallback.ParallelIters = 3, 41
	fallback.IterTime = truncated(1e7)
	fallback.Seed = 24
	large := base
	large.SerialIters, large.ParallelIters, large.Workers = 101, maxSharedCosts+4465, 8
	large.IterTime = stats.NewNormal(1, 0.5)
	large.Avail = availability.Static{PMF: load}
	large.Seed = 25
	return []armsPin{
		{"AWF family 3 sweeps", []string{"AWF", "AWF-B", "AWF-C", "AF", "FAC"}, awf, 6, false},
		{"profiled with redraws", []string{"STATIC", "FSC", "WF", "AWF-D", "TSS"}, profiled, 6, false},
		{"release-gated arms", []string{"FAC", "AF", "AWF-E", "SS"}, gated, 6, true},
		{"quantile fallback shared", []string{"FAC", "AF"}, fallback, 4, false},
		{"quantile fallback single", []string{"AF"}, fallback, 4, false},
		{"above maxSharedCosts", []string{"FAC", "STATIC", "AF"}, large, 2, false},
	}
}

// TestArmsBitsPinned pins every arm's outputs of the armsPins runs,
// as a SHA-256 over sampleBits of each arm in turn, to values recorded
// when every iteration cost was drawn by its own Sample call.
func TestArmsBitsPinned(t *testing.T) {
	want := map[string]string{
		"AWF family 3 sweeps":      "01b5f2fd6d7b8fbafd0e397a98c440f1b0b50800f6d6864b45e0ef752c611321",
		"profiled with redraws":    "3c100c90640e21033c5d456605d0a7a1e9119b51d642ca0a130f0fb46b9a0738",
		"release-gated arms":       "0a79b7dc92cbd1e43ce8ab6506bcf7866a56a2fd802639dd36d75c06dd3f59bd",
		"quantile fallback shared": "f4f0625cbb1d0c70f3567807cc77fdcc50034033159e147becea5db0d1057eda",
		"quantile fallback single": "8ee3431c4e758d0398efaf0902bc947863e1d86312f87cddd8341530c7bdb7c6",
		"above maxSharedCosts":     "d3e9982709d582cb27abe8dcd73368043f0990479cb8c63876e62e8b53905f90",
	}
	for _, p := range armsPins() {
		arms := make([]Arm, len(p.techs))
		for ti, name := range p.techs {
			arms[ti].Technique = tech(t, name)
			if p.gated {
				arms[ti].Releases = make([]float64, p.reps)
				for r := range arms[ti].Releases {
					arms[ti].Releases[r] = float64(ti*11+r*4) + 0.75
				}
			}
		}
		got, err := RunArmsContext(context.Background(), p.cfg, arms, p.reps)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var bits [][]uint64
		for _, s := range got {
			b := sampleBits(s)
			bits = append(bits, b)
			for _, x := range b {
				binary.Write(h, binary.LittleEndian, x)
			}
		}
		if d := hex.EncodeToString(h.Sum(nil)); d != want[p.name] {
			t.Errorf("%s: digest %s, pinned %s (bits %#x)", p.name, d, want[p.name], bits)
		}
	}
}

// TestArmsRedrawBitsPinned pins the redraw of non-positive costs that
// drawCosts keeps for a distribution that can yield them: a normal
// truncated to [-5, 5] around 0.2 draws a non-positive value ~42 % of
// the time, on the shared vector of a multi-arm cell and on a single
// arm's windows. The digests are sampleBits of each arm in turn,
// recorded before the run state was reused across repetitions.
func TestArmsRedrawBitsPinned(t *testing.T) {
	load := pmf.MustNew([]pmf.Pulse{{Value: 0.25, Prob: 0.25}, {Value: 0.5, Prob: 0.25}, {Value: 1, Prob: 0.5}})
	cfg := Config{
		SerialIters:      12,
		ParallelIters:    240,
		Workers:          4,
		IterTime:         stats.Truncated{Dist: stats.NewNormal(0.2, 1), Lo: -5, Hi: 5},
		Avail:            availability.Markov{PMF: load, Interval: 25, Persistence: 0.5},
		Overhead:         0.5,
		WeightsFromAvail: true,
		BestMaster:       true,
		Seed:             26,
	}
	for _, p := range []struct {
		techs []string
		want  string
	}{
		{[]string{"FAC", "WF", "AWF-B", "AF"}, "fcaefc632b1d93ab307c5f37aa83c21a9fbdb2cbb6a573088f73adc897c7a197"},
		{[]string{"AF"}, "9c5949807af87f71fbd26e0b1ae523b34331437818aba1135b80f1625e6f0ff1"},
	} {
		arms := make([]Arm, len(p.techs))
		for i, name := range p.techs {
			arms[i].Technique = tech(t, name)
		}
		got, err := RunArmsContext(context.Background(), cfg, arms, 6)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, s := range got {
			for _, x := range sampleBits(s) {
				binary.Write(h, binary.LittleEndian, x)
			}
		}
		if d := hex.EncodeToString(h.Sum(nil)); d != p.want {
			t.Errorf("%v: digest %s, pinned %s", p.techs, d, p.want)
		}
	}
}
