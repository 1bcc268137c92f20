// Command x3cube runs an X³ cube query over an XML file or a paged store.
//
// Usage:
//
//	x3cube -xml books.xml -queryfile q.xq
//	x3cube -xml books.xml -query 'for $b in ... return COUNT($b)' -algorithm BUC -csv out.csv
//	x3cube -xml big.xml -save big.x3st            # persist a store
//	x3cube -store big.x3st -queryfile q.xq        # query the store
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"x3"
	"x3/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("x3cube: ")
	var (
		xmlPath   = flag.String("xml", "", "XML input file")
		storePath = flag.String("store", "", "paged store input file (alternative to -xml)")
		savePath  = flag.String("save", "", "persist the XML input as a paged store and exit")
		queryText = flag.String("query", "", "X³ query text")
		queryFile = flag.String("queryfile", "", "file containing the X³ query")
		algorithm = flag.String("algorithm", "COUNTER", "cube algorithm (see -list)")
		budget    = flag.Int64("budget", 0, "memory budget in bytes (0 = unlimited)")
		dtdFile   = flag.String("dtdfile", "", "DTD for schema-driven CUST optimization")
		csvPath   = flag.String("csv", "", "write all cube cells as CSV here")
		cellsPath = flag.String("cells", "", "write all cube cells to an indexed cell file here (they spill in sorted runs past -budget bytes, or past 64 MiB without one, instead of collecting in memory)")
		cuboid    = flag.String("cuboid", "", `print one cuboid, e.g. '$n=rigid,$y=LND'`)
		lattice   = flag.Bool("lattice", false, "print the query's relaxed-cube lattice (Fig. 3 style) and exit")
		list      = flag.Bool("list", false, "list algorithms and exit")
		poolPages = flag.Int("pool", 0, "store buffer pool pages (0 = default)")
		metrics   = flag.String("metrics", "", "write pipeline metrics as JSON here")
		workers   = flag.Int("workers", 0, "worker fan-out for parallel algorithms and sorts (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *list {
		for _, a := range x3.Algorithms() {
			fmt.Println(a)
		}
		return
	}

	var (
		db  *x3.Database
		err error
	)
	switch {
	case *xmlPath != "":
		db, err = x3.LoadXMLFile(*xmlPath)
	case *storePath != "":
		db, err = x3.OpenStore(*storePath, *poolPages)
	default:
		log.Fatal("need -xml or -store")
	}
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if *savePath != "" {
		if err := db.Save(*savePath); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "x3cube: saved %d nodes to %s\n", db.NumNodes(), *savePath)
		return
	}

	qt := *queryText
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			log.Fatal(err)
		}
		qt = string(b)
	}
	if qt == "" {
		log.Fatal("need -query or -queryfile")
	}
	q, err := x3.ParseQuery(qt)
	if err != nil {
		log.Fatal(err)
	}
	if *lattice {
		fmt.Printf("%d cuboids:\n%s", q.NumCuboids(), q.LatticeSketch())
		return
	}

	opts := []x3.Option{x3.WithAlgorithm(*algorithm), x3.WithMemoryBudget(*budget), x3.WithWorkers(*workers)}
	if *dtdFile != "" {
		b, err := os.ReadFile(*dtdFile)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, x3.WithDTD(string(b)))
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.New()
		opts = append(opts, x3.WithRegistry(reg))
	}
	writeMetrics := func() {
		if *metrics == "" {
			return
		}
		if err := reg.WriteJSONFile(*metrics); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "x3cube: metrics written to %s\n", *metrics)
	}
	if *cellsPath != "" {
		cells, st, err := db.CubeToFile(q, *cellsPath, opts...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "x3cube: %s: %d cells written to %s (passes=%d sorts=%d external=%d)\n",
			*algorithm, cells, *cellsPath, st.Passes, st.Sorts, st.ExternalSorts)
		writeMetrics()
		return
	}
	res, err := db.Cube(q, opts...)
	if err != nil {
		log.Fatal(err)
	}
	writeMetrics()

	st := res.Stats()
	fmt.Fprintf(os.Stderr,
		"x3cube: %s: %d facts, %d cuboids, %d cells (passes=%d sorts=%d external=%d)\n",
		*algorithm, res.NumFacts(), q.NumCuboids(), res.TotalCells(),
		st.Passes, st.Sorts, st.ExternalSorts)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *cuboid != "" {
		states, err := parseCuboidSpec(*cuboid)
		if err != nil {
			log.Fatal(err)
		}
		c, err := res.Cuboid(states)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cuboid %s (%d groups)\n", c.Label(), c.Size())
		for _, row := range c.Rows() {
			fmt.Printf("  %v -> %g\n", row.Values, row.Value)
		}
	}
	if *csvPath == "" && *cuboid == "" {
		// Default: print the grand total and per-cuboid sizes.
		if err := res.EachCuboid(func(c *x3.Cuboid) error {
			fmt.Printf("%-60s %8d groups\n", c.Label(), c.Size())
			return nil
		}); err != nil {
			log.Fatal(err)
		}
	}
}

// parseCuboidSpec parses "$n=rigid,$y=LND" into a state map.
func parseCuboidSpec(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, part := range splitNonEmpty(s, ',') {
		eq := -1
		for i := range part {
			if part[i] == '=' {
				eq = i
				break
			}
		}
		if eq <= 0 || eq == len(part)-1 {
			return nil, fmt.Errorf("bad cuboid spec element %q (want $var=state)", part)
		}
		out[part[:eq]] = part[eq+1:]
	}
	return out, nil
}

func splitNonEmpty(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
