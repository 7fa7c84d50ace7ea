// Command paper regenerates the paper's tables, figures and studies, one
// subcommand each; every one is a thin call into internal/harness.
//
// Usage:
//
//	go run ./cmd/paper <name> [flags]
//
//	table2                                   Table 2: broadcast hybrid menu, 30-node linear array
//	table3     [-rows 16] [-cols 32]         Table 3: NX vs InterCom at 8 B, 64 KB, 1 MB
//	fig1trace                                Fig. 1: data movement of the 2×2×3 SSMCC broadcast
//	fig2       [-csv]                        Fig. 2: predicted broadcast time of the Table 2 hybrids
//	fig4       [-panel both|collect|bcast] [-csv]
//	                                         Fig. 4: collect on 16×32, broadcast on 15×30
//	crossover  [-op bcast|collect|allreduce] [-rows 16] [-cols 32]
//	                                         §5/§6: short, long and auto across lengths
//	sweep      [-rows 16] [-cols 32] [-json] the envelope table for every collective of Table 1
//	ablate     [-p 16] [-bytes 8388608]      §8: pipelined vs scatter/collect broadcast under OS noise
//	edst       [-p 64] [-noise 16]           §8/§11: hypercube broadcasts, quiet then noisy
//	groupstudy [-rows 16] [-cols 32]         §9: collect within row, column, sub-mesh, scattered group
//	port                                     §11: Delta-like vs Paragon-like machine parameters
//
// sweep -json emits an array of {title, header, rows, notes} tables — the
// same schema cmd/hiersweep emits — instead of text tables.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/harness"
	"repro/internal/model"
)

// commands maps each subcommand to a function that registers its flags on
// fs, parses args and prints its tables.
var commands = map[string]func(fs *flag.FlagSet, args []string) error{
	"table2": func(fs *flag.FlagSet, args []string) error {
		fs.Parse(args)
		fmt.Println(harness.Table2())
		return nil
	},
	"table3": func(fs *flag.FlagSet, args []string) error {
		rows, cols := meshFlags(fs, args)
		return show(harness.Table3(*rows, *cols, []int{8, 64 << 10, 1 << 20}))
	},
	"fig1trace": func(fs *flag.FlagSet, args []string) error {
		fs.Parse(args)
		out, err := harness.Fig1()
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	},
	"fig2": func(fs *flag.FlagSet, args []string) error {
		csv := fs.Bool("csv", false, "emit CSV for plotting")
		fs.Parse(args)
		lengths := []int{8, 64, 512, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20}
		tab := harness.Fig2(lengths)
		if *csv {
			fmt.Print(tab.CSV())
			return nil
		}
		fmt.Println(tab)
		fmt.Println(harness.Fig2Planner(lengths))
		return nil
	},
	"fig4": func(fs *flag.FlagSet, args []string) error {
		panel := fs.String("panel", "both", "which panel: both, collect, bcast")
		csv := fs.Bool("csv", false, "emit CSV for plotting")
		fs.Parse(args)
		lengths := []int{8, 64, 512, 4096, 32768, 262144, 1 << 20}
		showPanel := func(tab harness.Table, err error) error {
			if err == nil && *csv {
				fmt.Print(tab.CSV())
				return nil
			}
			return show(tab, err)
		}
		if *panel == "both" || *panel == "collect" {
			if err := showPanel(harness.Fig4Collect(16, 32, lengths)); err != nil {
				return err
			}
		}
		if *panel == "both" || *panel == "bcast" {
			return showPanel(harness.Fig4Bcast(15, 30, lengths))
		}
		return nil
	},
	"crossover": func(fs *flag.FlagSet, args []string) error {
		op := fs.String("op", "bcast", "collective: bcast, collect, allreduce")
		rows, cols := meshFlags(fs, args)
		coll, ok := map[string]model.Collective{
			"bcast": model.Bcast, "collect": model.Collect, "allreduce": model.AllReduce,
		}[*op]
		if !ok {
			return fmt.Errorf("unknown -op %q", *op)
		}
		lengths := []int{8, 128, 1024, 8192, 65536, 262144, 1 << 20, 4 << 20}
		return show(harness.Crossover(coll, *rows, *cols, lengths))
	},
	"sweep": func(fs *flag.FlagSet, args []string) error {
		jsonOut := fs.Bool("json", false, "emit the shared sweep JSON schema instead of text tables")
		rows, cols := meshFlags(fs, args)
		var tables []harness.Table
		for _, coll := range model.Collectives() {
			tab, err := harness.Sweep(coll, *rows, *cols, []int{8, 1024, 65536, 1 << 20})
			if err != nil {
				return err
			}
			tables = append(tables, tab)
		}
		if *jsonOut {
			s, err := harness.TablesJSON(tables)
			if err != nil {
				return err
			}
			fmt.Println(s)
			return nil
		}
		for _, tab := range tables {
			fmt.Println(tab)
		}
		return nil
	},
	"ablate": func(fs *flag.FlagSet, args []string) error {
		p := fs.Int("p", 16, "nodes in the linear array")
		n := fs.Int("bytes", 8<<20, "vector length in bytes")
		fs.Parse(args)
		return show(harness.AblatePipelined(*p, *n, []float64{0, 2, 4, 8, 16, 32}))
	},
	"edst": func(fs *flag.FlagSet, args []string) error {
		p := fs.Int("p", 64, "hypercube nodes (power of two)")
		noise := fs.Float64("noise", 16, "OS noise amplitude for the second table, ×α")
		fs.Parse(args)
		lengths := []int{8, 4096, 262144, 1 << 20, 4 << 20, 16 << 20}
		if err := show(harness.CubeBroadcasts(*p, lengths, 0)); err != nil {
			return err
		}
		return show(harness.CubeBroadcasts(*p, lengths, *noise))
	},
	"groupstudy": func(fs *flag.FlagSet, args []string) error {
		rows, cols := meshFlags(fs, args)
		return show(harness.GroupStructureStudy(*rows, *cols, []int{64, 4096, 65536, 262144, 1 << 20}))
	},
	"port": func(fs *flag.FlagSet, args []string) error {
		fs.Parse(args)
		fmt.Println(harness.PortStudy(30, []int{8, 4096, 16384, 65536, 1 << 20}))
		return nil
	},
}

// meshFlags registers the simulated mesh extents most studies take and
// parses args (after the caller's own flags are registered).
func meshFlags(fs *flag.FlagSet, args []string) (rows, cols *int) {
	rows = fs.Int("rows", 16, "mesh rows")
	cols = fs.Int("cols", 32, "mesh columns")
	fs.Parse(args)
	return rows, cols
}

// show prints a harness result, passing its error through.
func show(tab harness.Table, err error) error {
	if err == nil {
		fmt.Println(tab)
	}
	return err
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: paper <name> [flags]\nnames: table2 table3 fig1trace fig2 fig4 crossover sweep ablate edst groupstudy port (go doc ./cmd/paper)")
		os.Exit(2)
	}
	name := os.Args[1]
	if err := commands[name](flag.NewFlagSet("paper "+name, flag.ExitOnError), os.Args[2:]); err != nil {
		log.Fatal(err)
	}
}
