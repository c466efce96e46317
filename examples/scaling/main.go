// Scaling study: reproduces the paper's scalability evaluation — REWL
// weak/strong scaling and distributed data-parallel training throughput up
// to 3,072 devices on models of the Summit (NVIDIA V100) and Crusher
// (AMD MI250X) supercomputers. The functional algorithms run over this
// repository's in-process transport backend, one goroutine per rank; this
// example extends their measured behaviour to machine scale with the
// calibrated performance model (see DESIGN.md, substitutions).
package main

import (
	"fmt"

	"deepthermo/internal/experiments"
)

func main() {
	opts := experiments.ScalingOptions{
		DeviceCounts: []int{8, 24, 96, 384, 1536, 3072},
		Sites:        8192,
	}
	fmt.Print(experiments.WeakScaling(opts).Format())
	fmt.Println()
	fmt.Print(experiments.StrongScaling(opts).Format())
	fmt.Println()
	fmt.Print(experiments.TrainingScaling(opts).Format())

	fmt.Println("\nend-to-end composition with a measured 3x WL convergence speedup:")
	res, err := experiments.TimeToSolution(experiments.E10Options{Speedup: 3})
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Format())
}
