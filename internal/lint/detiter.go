package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
)

// detiterRoot selects call-graph roots: functions whose display name
// ("Recv.Name" or "Name") matches re inside a package whose import path
// ends in pkgSuffix.
type detiterRoot struct {
	pkgSuffix string
	re        *regexp.Regexp
}

// detiterRoots are the byte-determinism entry points: the differential
// suites assert byte-equality of cell files, sink output and HTTP
// responses, so everything these reach must iterate deterministically.
var detiterRoots = []detiterRoot{
	// Cell-file writers: every sink and writer method, and every writer
	// and merge entry point.
	{"internal/cellfile", regexp.MustCompile(`Sink\.|Writer\.|^(Create|Write|Merge)`)},
	// v4 column encoders: the columnar-block and packed-state encoders
	// are rooted directly, not just via Sink reachability — the
	// differential suites compare v4 files byte-for-byte, so a map range
	// inside any column encoding helper corrupts the comparison even if a
	// future refactor detaches it from the sink call graph.
	{"internal/cellfile", regexp.MustCompile(`^append(ColumnarBlock|PackedState)$`)},
	// Cube sink flushes: the batched and locked sinks that serialize
	// worker output, and every algorithm's cell emission.
	{"internal/cube", regexp.MustCompile(`\b(Cell|Flush|Close)$`)},
	// Serving: the full query answer path, the refresh path (append,
	// flush and compaction writers) and the sorted stream a build
	// publishes as the base generation.
	{"internal/serve", regexp.MustCompile(`^(Store\.(Answer|ServeRequest|RefreshDoc)|emitBase)$`)},
	// The sharded gather: every shard's rows fold into one answer.
	{"internal/shard", regexp.MustCompile(`^Coordinator\.ServeRequest$`)},
	// The library's own materialization entry.
	{"", regexp.MustCompile(`^CubeTo`)},
}

// Detiter returns the analyzer enforcing byte-determinism on output
// paths: `for range` over a map inside any function reachable from a
// cell-file writer, a sink flush, an HTTP answer path or a handler is
// flagged — Go randomizes map iteration order per run, so such a loop
// makes output bytes (or which error wins) differ across identical runs.
// Handlers are recognized by an http.ResponseWriter parameter; the rest
// by the root table. Reachability is conservative: interface-method calls
// fan out to every same-named method in the module, closures belong to
// their enclosing function, and referencing a function counts as calling
// it.
func Detiter() *Analyzer {
	return &Analyzer{
		Name: "detiter",
		Doc:  "no map iteration on byte-deterministic output paths",
		Run:  runDetiter,
	}
}

type detFn struct {
	pkg      *Package
	decl     *ast.FuncDecl
	fn       *types.Func
	display  string
	callees  map[*types.Func]bool
	ifaceOut map[string]bool // interface-dispatched method names
}

func runDetiter(prog *Program) []Diagnostic {
	fns := map[*types.Func]*detFn{}
	byName := map[string][]*types.Func{} // method name -> concrete methods
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				d := &detFn{pkg: pkg, decl: fd, fn: fn, display: funcDisplay(fn),
					callees: map[*types.Func]bool{}, ifaceOut: map[string]bool{}}
				fns[fn] = d
				if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
					byName[fn.Name()] = append(byName[fn.Name()], fn)
				}
			}
		}
	}
	// Edges: any reference to a module function (call or value use), plus
	// interface dispatch by method name.
	for _, d := range fns {
		info := d.pkg.Info
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					if _, inModule := fns[fn]; inModule {
						d.callees[fn] = true
					}
				}
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[n]; ok {
					if fn, ok := sel.Obj().(*types.Func); ok {
						if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
							d.ifaceOut[fn.Name()] = true
						}
					}
				}
			}
			return true
		})
	}
	// Roots.
	reachVia := map[*types.Func]string{} // fn -> root display that reached it
	var queue []*types.Func
	addRoot := func(fn *types.Func, why string) {
		if _, ok := reachVia[fn]; ok {
			return
		}
		reachVia[fn] = why
		queue = append(queue, fn)
	}
	for _, d := range fns {
		for _, root := range detiterRoots {
			if root.pkgSuffix != "" && !pkgPathHasSuffix(d.pkg.Types, root.pkgSuffix) {
				continue
			}
			if root.pkgSuffix == "" && d.pkg.Path != prog.ModPath {
				continue
			}
			if root.re.MatchString(d.display) {
				addRoot(d.fn, d.display)
			}
		}
		if isHTTPHandler(d.fn) {
			addRoot(d.fn, d.display)
		}
	}
	// BFS.
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		d := fns[fn]
		if d == nil {
			continue
		}
		why := reachVia[fn]
		for callee := range d.callees {
			if _, ok := reachVia[callee]; !ok {
				reachVia[callee] = why
				queue = append(queue, callee)
			}
		}
		for name := range d.ifaceOut {
			for _, impl := range byName[name] {
				if _, ok := reachVia[impl]; !ok {
					reachVia[impl] = why
					queue = append(queue, impl)
				}
			}
		}
	}
	// Flag map ranges in reachable functions.
	var diags []Diagnostic
	var reached []*types.Func
	for fn := range reachVia {
		reached = append(reached, fn)
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i].Pos() < reached[j].Pos() })
	for _, fn := range reached {
		d := fns[fn]
		if d == nil {
			continue
		}
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := d.pkg.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:      prog.Fset.Position(rs.Pos()),
				Analyzer: "detiter",
				Message: "map iteration in " + d.display + " (reachable from output root " + reachVia[fn] +
					"): Go randomizes map order per run, so output bytes or error choice become nondeterministic; iterate sorted keys",
			})
			return true
		})
	}
	return diags
}

// isHTTPHandler reports whether fn takes an http.ResponseWriter — the
// response-encoding entry points of cmd/x3serve.
func isHTTPHandler(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
			return true
		}
	}
	return false
}
