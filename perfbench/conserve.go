package main

import (
	"fmt"
	"math/rand"

	"nscc/internal/faults"
	"nscc/internal/netsim"
	"nscc/internal/sim"
)

// conservation checks the frame accounting of the fabric a workload
// runs on, on seeded unicast and multicast traffic with loss: at a cut
// in the middle of the traffic the deliveries offered so far equal
// delivered + dropped + in flight (in flight never negative), and once
// the engine is idle every offered delivery was delivered or dropped,
// with the handler seeing exactly the deliveries the fabric counts.
// Duplicates an injector adds count as extra deliveries offered.
func conservation(w *workload, seed int64) error {
	const nodes = 48
	const frames = 4000
	eng := sim.NewEngine(seed)
	var f netsim.Fabric
	var inj *faults.Injector
	switch w.name {
	case "scale-gossip":
		h := netsim.DefaultHierConfig()
		h.RackSize = 8
		h.Bus.LossProb = 0.05
		f = netsim.NewHier(eng, h)
	case "ga-loaded-faults":
		inj = faults.Wrap(netsim.New(eng, netsim.DefaultConfig()), w.trials[0].(*gaTrial).plan)
		f = inj
	default:
		cfg := netsim.DefaultConfig()
		cfg.LossProb = 0.05
		f = netsim.New(eng, cfg)
	}
	var got int64
	for i := 0; i < nodes; i++ {
		f.Attach("n", func(int, interface{}, sim.Time) { got++ })
	}
	rng := rand.New(rand.NewSource(seed))
	var offered, offeredAtCut int64
	const horizon = 4 * sim.Second
	cut := sim.Time(horizon / 2)
	for i := 0; i < frames; i++ {
		at := sim.Time(rng.Int63n(int64(horizon)))
		src := rng.Intn(nodes)
		var dsts []int
		for len(dsts) == 0 {
			for d := 0; d < nodes; d++ {
				if d != src && rng.Intn(nodes) < 3 {
					dsts = append(dsts, d)
				}
			}
		}
		size := 64 + rng.Intn(1024)
		eng.Schedule(at, func() {
			offered += int64(len(dsts))
			if eng.Now() <= cut {
				offeredAtCut += int64(len(dsts))
			}
			if len(dsts) == 1 {
				f.Send(src, dsts[0], size, nil)
			} else {
				f.Multicast(src, dsts, size, nil, nil)
			}
		})
	}
	if err := eng.RunUntil(cut); err != nil {
		return err
	}
	dups := func() int64 {
		if inj == nil {
			return 0
		}
		return inj.FaultStats().Duplicated
	}
	st := f.Stats()
	if inflight := offeredAtCut + dups() - st.Delivered - st.Dropped; inflight < 0 {
		return fmt.Errorf("%s fabric at the cut: offered %d + duplicated %d < delivered %d + dropped %d",
			w.name, offeredAtCut, dups(), st.Delivered, st.Dropped)
	}
	if err := eng.Run(); err != nil {
		return err
	}
	st = f.Stats()
	if st.Frames != frames || offered+dups() != st.Delivered+st.Dropped || got != st.Delivered {
		return fmt.Errorf("%s fabric: %d frames offering %d deliveries (+%d duplicated) ended with stats %+v and %d handled",
			w.name, frames, offered, dups(), st, got)
	}
	return nil
}
