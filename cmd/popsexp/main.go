// Command popsexp regenerates the reproduction experiments E1–E16 and EF
// (the Figure 1–2 topology checks) of internal/expt, printing one table per
// experiment. `popsexp -e all` is the paper reproduction; the README lists
// it under "Commands and examples".
//
// Usage:
//
//	popsexp                  # run everything
//	popsexp -e E7            # one experiment
//	popsexp -markdown        # GitHub-flavored markdown output
//	popsexp -seed 7 -trials 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pops/internal/expt"
)

func main() {
	var (
		exp      = flag.String("e", "all", "experiment to run: E1..E16, F, or all")
		seed     = flag.Int64("seed", 1, "random seed for workloads")
		trials   = flag.Int("trials", 3, "trials per configuration where applicable")
		markdown = flag.Bool("markdown", false, "emit markdown tables instead of aligned text")
	)
	flag.Parse()

	tables, err := run(*exp, *seed, *trials)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popsexp: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tables {
		var renderErr error
		if *markdown {
			renderErr = t.Markdown(os.Stdout)
		} else {
			renderErr = t.Render(os.Stdout)
		}
		if renderErr != nil {
			fmt.Fprintf(os.Stderr, "popsexp: %v\n", renderErr)
			os.Exit(1)
		}
	}
}

func run(exp string, seed int64, trials int) ([]*expt.Table, error) {
	one := func(t *expt.Table, err error) ([]*expt.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*expt.Table{t}, nil
	}
	switch strings.ToUpper(exp) {
	case "ALL":
		return expt.All(seed)
	case "E1":
		return one(expt.E1(seed, trials))
	case "E2":
		return one(expt.E2(seed))
	case "E3":
		return one(expt.E3())
	case "E4":
		return one(expt.E4(seed, trials))
	case "E5":
		return one(expt.E5())
	case "E6":
		return one(expt.E6())
	case "E7":
		return one(expt.E7(seed))
	case "E8":
		return one(expt.E8(seed))
	case "E9":
		return one(expt.E9())
	case "E10":
		return one(expt.E10(seed, nil))
	case "E11":
		return one(expt.E11(seed))
	case "E12":
		return one(expt.E12(seed))
	case "E13":
		return one(expt.E13(seed))
	case "E14":
		return one(expt.E14(seed))
	case "E15":
		return one(expt.E15(seed))
	case "E16":
		return one(expt.E16(seed))
	case "F", "F1", "F2", "F1/F2":
		return one(expt.EF())
	default:
		return nil, fmt.Errorf("unknown experiment %q (want E1..E16, F, or all)", exp)
	}
}
