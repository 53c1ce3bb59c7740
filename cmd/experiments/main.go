// Command experiments regenerates the paper's evaluation: every table and
// figure of Section 7, plus this repository's extensions and ablations
// (README, "Reproducing the paper's experiments").
//
// Usage:
//
//	experiments [-run <id>] [-seed N]
//
// where <id> names one experiment, or all (the default) to run every one
// in order; `experiments -h` lists the ids. An unknown id exits with
// status 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/experiments"
)

// runs lists every experiment in output order; each prints its results,
// one section apiece.
var runs = []struct {
	id  string
	run func(env *experiments.Env) error
}{
	{"table2a", func(env *experiments.Env) error { return show(env.Table2(env.Restaurant), nil) }},
	{"table2b", func(env *experiments.Env) error { return show(env.Table2(env.Product), nil) }},
	{"fig10", func(env *experiments.Env) error { return perDataset(env.Figure10, env.Restaurant, env.Product) }},
	{"fig11", func(env *experiments.Env) error { return perDataset(env.Figure11, env.Restaurant, env.Product) }},
	{"fig12a", func(env *experiments.Env) error { return show(env.Figure12(env.Restaurant, 0.35, 10)) }},
	{"fig12b", func(env *experiments.Env) error { return show(env.Figure12(env.Product, 0.2, 10)) }},
	{"fig13-15", func(env *experiments.Env) error {
		return perDataset(func(d *dataset.Dataset) (*experiments.PairVsClusterResult, error) {
			return env.PairVsCluster(d, 0.2, 10)
		}, env.Product, env.ProductDup)
	}},
	{"extension", func(env *experiments.Env) error {
		if err := show(env.ActiveVsHybrid(env.Restaurant, 0.35, 10)); err != nil {
			return err
		}
		return show(env.ActiveVsHybrid(env.Product, 0.2, 10))
	}},
	{"scale", func(env *experiments.Env) error {
		return show(env.Scale([]int{858, 1716, 3432, 6864}, 0.2, 300))
	}},
	{"ablations", func(env *experiments.Env) error {
		for _, d := range []*dataset.Dataset{env.Restaurant, env.Product} {
			for _, f := range []func(*dataset.Dataset) (*experiments.AblationResult, error){
				env.AblationPacking, env.AblationSeed, env.AblationTieBreak,
			} {
				if err := show(f(d)); err != nil {
					return err
				}
			}
		}
		return show(env.AblationEM(env.Restaurant, 0.35, 10))
	}},
}

// show prints one result as a section.
func show[R fmt.Stringer](r R, err error) error {
	if err == nil {
		fmt.Println(r.String())
	}
	return err
}

// perDataset runs f on each dataset in turn and shows the results.
func perDataset[R fmt.Stringer](f func(*dataset.Dataset) (R, error), ds ...*dataset.Dataset) error {
	for _, d := range ds {
		if err := show(f(d)); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	ids := make([]string, 0, len(runs)+1)
	for _, r := range runs {
		ids = append(ids, r.id)
	}
	ids = append(ids, "all")
	run := flag.String("run", "all", "experiment id: "+strings.Join(ids, ", "))
	seed := flag.Int64("seed", 1, "base RNG seed")
	flag.Parse()
	if !slices.Contains(ids, *run) {
		log.Printf("unknown -run id %q; valid ids: %s", *run, strings.Join(ids, ", "))
		os.Exit(2)
	}

	env := experiments.NewEnv(*seed)
	fmt.Println(env.Restaurant.Stats())
	fmt.Println(env.Product.Stats())
	fmt.Println(env.ProductDup.Stats())
	fmt.Println()

	start := time.Now()
	for _, r := range runs {
		if *run != "all" && *run != r.id {
			continue
		}
		if err := r.run(env); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
}
