// Command ccrepro regenerates the paper's figures and this repository's
// experiments as text tables.
//
// Usage:
//
//	ccrepro            # everything
//	ccrepro -only 2.1  # one artifact: 2.1, 4.1, 4.2, 6.1, ex4.1,
//	                   # t3, t51, t52, t53, t61, d1, dnet, resid
//	ccrepro -quick     # smaller parameter sweeps
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "regenerate a single artifact (2.1, 4.1, 4.2, 6.1, ex4.1, t3, t51, t52, t53, t61, d1, dnet, resid)")
	quick := flag.Bool("quick", false, "smaller parameter sweeps")
	flag.Parse()
	if err := run(*only, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "ccrepro:", err)
		os.Exit(1)
	}
}

func run(only string, quick bool) error {
	want := func(id string) bool { return only == "" || only == id }
	p := func(t experiments.Table) { fmt.Println(t.Render()) }

	if want("2.1") {
		p(experiments.Fig21())
	}
	if want("4.1") {
		p(experiments.Fig41())
	}
	if want("4.2") {
		p(experiments.Fig42())
	}
	if want("6.1") {
		gen, paper, err := experiments.Fig61Program()
		if err != nil {
			return err
		}
		fmt.Println("Fig 6.1 — the paper's program:")
		fmt.Println(paper)
		fmt.Println()
		fmt.Println("Generated (generalized to open/closed/infinite endpoints, target [4,8]):")
		fmt.Println(gen)
		fmt.Println()
		demo, err := experiments.Fig61Demo()
		if err != nil {
			return err
		}
		p(demo)
	}
	if want("ex4.1") {
		t, err := experiments.ExpExample41()
		if err != nil {
			return err
		}
		p(t)
	}
	if want("t3") {
		sizes := []int{1, 2, 3, 4, 5}
		if quick {
			sizes = []int{1, 2, 3}
		}
		p(experiments.ExpSubsumption(sizes))
	}
	if want("t51") {
		ks := []int{1, 2, 3, 4, 5}
		if quick {
			ks = []int{1, 2, 3}
		}
		p(experiments.ExpTheorem51VsKlug(ks))
		trials := 300
		if quick {
			trials = 60
		}
		p(experiments.ExpTheorem51VsKlugRandom(trials, 17))
	}
	if want("t52") {
		sizes := []int{5, 20, 50, 100, 200}
		if quick {
			sizes = []int{5, 20}
		}
		t, err := experiments.ExpLocalTest(sizes, 9)
		if err != nil {
			return err
		}
		p(t)
	}
	if want("t53") {
		sizes := []int{10, 100, 1000, 10000}
		if quick {
			sizes = []int{10, 100}
		}
		t, err := experiments.ExpRACompile(sizes, 9)
		if err != nil {
			return err
		}
		p(t)
	}
	if want("t61") {
		sizes := []int{5, 10, 20, 40}
		if quick {
			sizes = []int{5, 10}
		}
		t, err := experiments.ExpIntervalAblation(sizes, 9)
		if err != nil {
			return err
		}
		p(t)
	}
	if want("d1") {
		densities := []int{10, 50, 150, 400}
		updates := 100
		if quick {
			densities = []int{10, 50}
			updates = 30
		}
		t, err := experiments.ExpDistributed(densities, updates, 5)
		if err != nil {
			return err
		}
		p(t)
	}
	if want("resid") {
		density, updates, rounds := 50, 100, 5
		if quick {
			updates, rounds = 30, 2
		}
		t, err := experiments.ExpResidual(density, updates, rounds, 5)
		if err != nil {
			return err
		}
		p(t)
	}
	if want("dnet") {
		densities := []int{10, 50, 150}
		updates, latency := 100, time.Millisecond
		if quick {
			densities = []int{10, 50}
			updates = 30
		}
		t, err := experiments.ExpNetDistributed(densities, updates, latency, 5)
		if err != nil {
			return err
		}
		p(t)
	}
	return nil
}
