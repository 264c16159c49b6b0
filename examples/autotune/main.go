// Autotune: the paper's future work (§6) — "adjust the allocation of
// cores to streaming software processes in response to real-time
// resource utilization". A stream starts from a deliberately bad
// configuration (one compress worker, everything on socket 0); the
// adaptive placement controller (internal/adapt) watches the
// self-diagnosis windows, resizes and re-pins the elastic pools, and
// converges to within 10% of the hand-tuned configuration, which draws
// no actions at all. Virtual time: the same seed prints the same story.
package main

import (
	"fmt"
	"log"

	"numastream/internal/experiments"
)

func main() {
	res, err := experiments.AdaptSim(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.FormatAdaptSim(res))
	if err := res.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged to %.0f%% of tuned with %d actions\n",
		100*res.Converged(), len(res.Actions))
}
