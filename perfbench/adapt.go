package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"tunable/internal/apps"
	"tunable/internal/core"
	"tunable/internal/expt"
	"tunable/internal/perfstore"
)

// Adaptation workload shape.
const (
	// mixSeeds and driftSeeds size each run's seed list. One pass of the
	// list must fit in a run (≈0.2 s per mix seed, ≈1.2 s per drift seed),
	// and the QoS outcome is taken over exactly one pass so it repeats
	// exactly for a given --seed.
	mixSeeds       = 32
	driftSeeds     = 6
	mixVideo       = 32
	mixFoveal      = 16
	mixHosts       = 8
	mixLinkPool    = 3e6
	mixArrival     = 400 * time.Millisecond
	mixChaosWindow = 20 * time.Second
)

// expected holds outcomes recorded from the program: the report digest
// of one reference mix seed and the outcome of one reference drift seed.
// A change to either is a change of the program's behaviour.
//
//go:embed expected.json
var expectedJSON []byte

type expectedOutcomes struct {
	Mix struct {
		Seed   uint64 `json:"seed"`
		Digest string `json:"digest"`
	} `json:"adapt-mix"`
	Drift struct {
		Seed    uint64 `json:"seed"`
		Hits    int    `json:"hits"`
		Post    int    `json:"post"`
		TotalNS int64  `json:"total_ns"`
	} `json:"adapt-drift"`
}

func loadExpected() (expectedOutcomes, error) {
	var e expectedOutcomes
	err := json.Unmarshal(expectedJSON, &e)
	return e, err
}

// mixApps are the two application classes of the mix. Their profiled
// databases are built once per process, which is why every workload runs
// in a fresh process and set-up is timed in children.
type mixApps struct {
	video  *apps.Video
	foveal *apps.Foveal
}

func setupMix() (*mixApps, error) {
	m := &mixApps{video: apps.NewVideo(), foveal: apps.NewFoveal()}
	if _, err := m.video.DB(); err != nil {
		return nil, err
	}
	if _, err := m.foveal.DB(); err != nil {
		return nil, err
	}
	return m, nil
}

func setupDrift() error {
	_, err := expt.Fig6bDB()
	return err
}

func (m *mixApps) run(seed uint64) (*apps.MixReport, string, error) {
	chaos := apps.MixChaos(seed, mixChaosWindow)
	rep, err := apps.RunMix(apps.HarnessConfig{
		Seed:     seed,
		Hosts:    mixHosts,
		LinkPool: mixLinkPool,
		Chaos:    &chaos,
		Classes: []apps.ClassConfig{
			{App: m.video, Sessions: mixVideo, ArrivalEvery: mixArrival, Weight: 1},
			{App: m.foveal, Sessions: mixFoveal, ArrivalEvery: mixArrival, Weight: 1},
		},
	})
	if err != nil {
		return nil, "", err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(b)
	return rep, hex.EncodeToString(sum[:]), nil
}

// driftOutcome is what one drift run decides, compared across repeats.
type driftOutcome struct {
	Hits, Post int
	Total      time.Duration
	Switches   int64
	Final      string
}

func runDrift(seed uint64) (expt.RunResult, driftOutcome, error) {
	r, ps, err := expt.RunDriftOnline(seed, perfstore.NewMemStore())
	if ps != nil {
		ps.Close()
	}
	if err != nil {
		return r, driftOutcome{}, err
	}
	hits, post := expt.DeadlineHits(r)
	return r, driftOutcome{hits, post, r.Total, r.Switches, r.Final.Key()}, nil
}

// adaptRun is what one adaptation phase measured.
type adaptRun struct {
	ops, failed int
	// calls spans each RunMix or RunDriftOnline call that succeeded, and
	// callMS is its wall time: the latency of one seed run.
	calls    []interval
	callMS   []float64
	problems []string

	// aggregated over the first pass of the seed list
	passCalls                                   int
	requested, admitted, passed, derated, swtch int
	hits, post                                  int
	virtTotal                                   time.Duration
	triggers, switches                          int
	trigToSwitch                                []float64
}

// measureAdapt runs seeds in order, cycling, until dur has passed and at
// least minPass full passes are done. Every repeat of a seed must
// reproduce its first outcome exactly.
func measureAdapt(mix *mixApps, seeds []uint64, dur time.Duration, minPass int) *adaptRun {
	run := &adaptRun{}
	mixSeen := map[uint64]string{}
	driftSeen := map[uint64]driftOutcome{}
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < minPass*len(seeds); i++ {
		s := seeds[i%len(seeds)]
		first := i < len(seeds)
		t0 := time.Now()
		var ops int
		if mix != nil {
			ops = mixVideo + mixFoveal
			rep, digest, err := mix.run(s)
			if err != nil {
				run.fail(ops, fmt.Sprintf("mix seed %d: %v", s, err))
				continue
			}
			if d, ok := mixSeen[s]; ok && d != digest {
				run.fail(ops, fmt.Sprintf("mix seed %d: report digest changed on repeat", s))
				continue
			}
			mixSeen[s] = digest
			if first {
				run.passCalls++
				for _, c := range rep.Classes {
					run.requested += c.Requested
					run.admitted += c.Admitted
					run.passed += c.Passed
					run.derated += c.DeratedPlans
					run.swtch += int(c.Switches)
				}
			}
		} else {
			ops = expt.DriftImages
			r, out, err := runDrift(s)
			if err != nil {
				run.fail(ops, fmt.Sprintf("drift seed %d: %v", s, err))
				continue
			}
			if len(r.Stats) != ops {
				run.fail(ops, fmt.Sprintf("drift seed %d: %d images, want %d", s, len(r.Stats), ops))
				continue
			}
			if o, ok := driftSeen[s]; ok && o != out {
				run.fail(ops, fmt.Sprintf("drift seed %d: outcome changed on repeat", s))
				continue
			}
			driftSeen[s] = out
			if first {
				run.passCalls++
				run.hits += out.Hits
				run.post += out.Post
				run.virtTotal += out.Total
				run.loopEvents(r.Events)
			}
		}
		run.ops += ops
		t1 := time.Now()
		run.calls = append(run.calls, interval{t0, t1, float64(ops)})
		run.callMS = append(run.callMS, ms(t1.Sub(t0)))
	}
	return run
}

func (r *adaptRun) fail(ops int, why string) {
	r.ops += ops
	r.failed += ops
	r.problems = append(r.problems, why)
}

// loopEvents folds one run's decision log: triggers raised, switches
// applied, and the virtual time from each switch back to the trigger that
// led to it.
func (r *adaptRun) loopEvents(evs []core.Event) {
	var lastTrig time.Duration = -1
	for _, e := range evs {
		switch e.Kind {
		case core.EventTrigger:
			r.triggers++
			lastTrig = e.At
		case core.EventSwitch:
			r.switches++
			if lastTrig >= 0 {
				r.trigToSwitch = append(r.trigToSwitch, (e.At - lastTrig).Seconds())
			}
		}
	}
}

// checkReference runs the recorded reference seed and compares it with
// expected.json.
func checkReference(mix *mixApps, exp expectedOutcomes) error {
	if mix != nil {
		_, digest, err := mix.run(exp.Mix.Seed)
		if err != nil {
			return err
		}
		if digest != exp.Mix.Digest {
			return fmt.Errorf("mix seed %d: report digest %s, recorded %s", exp.Mix.Seed, digest, exp.Mix.Digest)
		}
		return nil
	}
	_, out, err := runDrift(exp.Drift.Seed)
	if err != nil {
		return err
	}
	if out.Hits != exp.Drift.Hits || out.Post != exp.Drift.Post || int64(out.Total) != exp.Drift.TotalNS {
		return fmt.Errorf("drift seed %d: %d/%d in deadline, total %d ns; recorded %d/%d, %d ns",
			exp.Drift.Seed, out.Hits, out.Post, int64(out.Total), exp.Drift.Hits, exp.Drift.Post, exp.Drift.TotalNS)
	}
	return nil
}
