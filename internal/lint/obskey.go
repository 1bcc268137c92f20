package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// obsKindMethods are the Registry methods that mint a metric under a key;
// each is its own metric kind in the registry's namespace.
var obsKindMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Span": true, "HDR": true,
}

// dynamic metric families ("fault.injected." + site) must open with a
// literal dotted prefix ending in a dot, so every key in the family is
// greppable and lands under a well-formed namespace.
var dottedPrefixRE = regexp.MustCompile(`^[a-z0-9]+(\.[a-z0-9_]+)*\.$`)

// Obskey returns the analyzer guarding the flat obs key namespace from
// PR 1: every key passed to Registry.{Counter,Gauge,Span,HDR}
// must be a compile-time constant matching ^[a-z0-9]+(\.[a-z0-9_]+)+$ —
// or, for dynamic families, start with a literal dotted prefix — and no
// key may be registered under two different metric kinds. A typo'd or
// kind-colliding key does not fail at runtime; it just mints a silent
// second metric that tests and dashboards never see.
func Obskey() *Analyzer {
	return &Analyzer{
		Name: "obskey",
		Doc:  "obs metric keys are literal, well-formed and kind-unique",
		Run:  runObskey,
	}
}

type obsReg struct {
	pos  ast.Node
	kind string
	key  string
}

func runObskey(prog *Program) []Diagnostic {
	var diags []Diagnostic
	var regs []obsReg
	for _, pkg := range prog.Packages {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				kind, ok := obsRegistryCall(info, call)
				if !ok || len(call.Args) == 0 {
					return true
				}
				nameArg := call.Args[0]
				if key, ok := constString(info, nameArg); ok {
					if !dottedKeyRE.MatchString(key) {
						diags = append(diags, Diagnostic{
							Pos:      prog.Fset.Position(nameArg.Pos()),
							Analyzer: "obskey",
							Message:  fmt.Sprintf("metric key %q does not match ^[a-z0-9]+(\\.[a-z0-9_]+)+$ (want at least two dotted segments)", key),
						})
					} else {
						regs = append(regs, obsReg{pos: nameArg, kind: kind, key: key})
					}
					return true
				}
				prefix, found := constPrefix(info, nameArg)
				switch {
				case !found:
					diags = append(diags, Diagnostic{
						Pos:      prog.Fset.Position(nameArg.Pos()),
						Analyzer: "obskey",
						Message:  "metric key is not a literal and has no literal dotted prefix; dynamic families must open with \"family.prefix.\"",
					})
				case !dottedPrefixRE.MatchString(prefix):
					diags = append(diags, Diagnostic{
						Pos:      prog.Fset.Position(nameArg.Pos()),
						Analyzer: "obskey",
						Message:  fmt.Sprintf("dynamic metric key prefix %q is not a dotted namespace ending in '.'", prefix),
					})
				}
				return true
			})
		}
	}
	// Kind-collision pass: the same key under two kinds is two silent
	// metrics behind one name.
	kinds := map[string]map[string]bool{}
	for _, r := range regs {
		if kinds[r.key] == nil {
			kinds[r.key] = map[string]bool{}
		}
		kinds[r.key][r.kind] = true
	}
	for _, r := range regs {
		if len(kinds[r.key]) < 2 {
			continue
		}
		var names []string
		for k := range kinds[r.key] {
			names = append(names, k)
		}
		sort.Strings(names)
		diags = append(diags, Diagnostic{
			Pos:      prog.Fset.Position(r.pos.Pos()),
			Analyzer: "obskey",
			Message:  fmt.Sprintf("metric key %q is registered under multiple kinds %v — each resolves a distinct silent metric", r.key, names),
		})
	}
	return diags
}

// obsRegistryCall reports whether call invokes a metric-minting method on
// the obs Registry, returning the metric kind (the method name).
func obsRegistryCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !obsKindMethods[sel.Sel.Name] {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" || !pkgPathHasSuffix(named.Obj().Pkg(), "internal/obs") {
		return "", false
	}
	return fn.Name(), true
}

// constPrefix extracts the longest leading compile-time string prefix of
// expr: the leftmost operand chain of a + concatenation, or the text
// before the first conversion of a constant fmt.Sprintf format.
func constPrefix(info *types.Info, expr ast.Expr) (string, bool) {
	expr = ast.Unparen(expr)
	if s, ok := constString(info, expr); ok {
		return s, true
	}
	switch e := expr.(type) {
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		return constPrefix(info, e.X)
	case *ast.CallExpr:
		fn := calleeFunc(info, e)
		if fn != nil && fn.FullName() == "fmt.Sprintf" && len(e.Args) > 0 {
			if format, ok := constString(info, e.Args[0]); ok {
				for i := 0; i < len(format); i++ {
					if format[i] == '%' {
						return format[:i], true
					}
				}
				return format, true
			}
		}
	}
	return "", false
}
