package cdsf_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed lists the non-test declarations under internal/ that no
// program reaches but that stay: each is an oracle a test checks live
// code against, or regenerates a number EXPERIMENTS.md reports. The
// value names that test or section. Entries are roots of the scan, so
// what they call (the KS critical values of ValidateStageI,
// StaticRuntimePMF and pmf.MaxN under StaticRuntimePenalty, pmf.Sampled
// under SampledBatch) needs no entry of its own.
var reachAllowed = map[string]string{
	"internal/core.Framework.ValidateStageI":           `EXPERIMENTS.md "Simulator-vs-model cross-validation" (TestValidateSimulatorAgainstStageI)`,
	"internal/core.ValidationResult.MeanRelativeError": `EXPERIMENTS.md "Simulator-vs-model cross-validation" (TestValidateSimulatorAgainstStageI)`,
	"internal/core.Framework.SimTolerance":             `EXPERIMENTS.md "Continuous tolerance edge" (TestSimulatedToleranceEdge)`,
	"internal/stats.KSStatistic":                       "TestSharedDrawsKeepMakespanDistributions (internal/core) compares shared-draw and salted makespans",
	"internal/robustness.StaticRuntimePenalty":         `EXPERIMENTS.md "Analytic explanation of scenario 2" (TestStaticRuntimeModelMatchesSimulator)`,
	"internal/robustness.MakespanPMF":                  "TestMakespanPMFMatchesPhi1 cross-checks phi_1",
	"internal/experiments.SampledBatch":                `EXPERIMENTS.md "Table V" note (TestSampledBatchAgreesWithDiscretized)`,
	"internal/experiments.PaperPhi1":                   "the paper's published phi_1, compared in TestPaperTableVAndPhi1",
	"internal/experiments.PaperDecreases":              "Table I's published availability decreases, compared in TestPaperTableI",
	"internal/pmf.Grid.ToPMF":                          "test helper: the grid tests compare grid results against the sparse reference",
	"internal/tracing.New":                             "test helper: the span tests of ra, sim, core and server record into it",
	"internal/dls.af.Remaining":                        "TestAllTechniquesScheduleEveryIteration (internal/dls) checks the drain invariant",
	"internal/dls.fac.Remaining":                       "TestAllTechniquesScheduleEveryIteration (internal/dls) checks the drain invariant",
	"internal/dls.fsc.Remaining":                       "TestAllTechniquesScheduleEveryIteration (internal/dls) checks the drain invariant",
	"internal/dls.ss.Remaining":                        "TestAllTechniquesScheduleEveryIteration (internal/dls) checks the drain invariant",
	"internal/dls.static.Remaining":                    "TestAllTechniquesScheduleEveryIteration (internal/dls) checks the drain invariant",
	"internal/dls.tss.Remaining":                       "TestAllTechniquesScheduleEveryIteration (internal/dls) checks the drain invariant",
	"internal/dls.wf.Remaining":                        "TestAllTechniquesScheduleEveryIteration (internal/dls) checks the drain invariant",
}

// implicitMethods are called by the standard library through an
// interface (fmt, errors, encoding/json, encoding, sort, container/heap,
// io, net/http, flag, context), so a reached type keeps them even when
// no selector in the module names them.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "WriteTo": true, "ReadFrom": true,
	"WriteString": true, "WriteByte": true, "Flush": true, "Sync": true,
	"ServeHTTP": true, "Header": true, "WriteHeader": true,
	"Set": true, "Get": true,
	"Deadline": true, "Done": true, "Err": true, "Value": true,
}

// reachDecl is one top-level declaration: a func, type, var or const
// ("pkg.Name"), or a method ("pkg.Type.Method").
type reachDecl struct {
	pkg, name string
	nodes     []reachNode
}

// reachNode is a syntax subtree to walk when its declaration is reached,
// with the file whose imports resolve its package selectors.
type reachNode struct {
	node ast.Node
	file *reachFile
}

type reachFile struct {
	pkg     string            // directory relative to the repo root
	imports map[string]string // local name -> import path
}

// reachModule is every non-test Go file of this module and of e2ebench/.
type reachModule struct {
	decls   map[string]*reachDecl // key: pkg.Name or pkg.Type.Method
	methods map[string][]string   // "pkg.Type" -> method decl keys
	roots   []string
	imports map[string]map[string]bool // pkg -> imported module pkgs
}

// TestReachability walks the call graph of every program — the main and
// init functions under cmd/, examples/ and e2ebench/, plus the init
// functions of every package they import — and fails on each non-test
// declaration under internal/ it cannot reach, unless reachAllowed
// names it. The walk is syntactic: it follows identifiers, package
// selectors, and methods whose name some reached selector uses (or that
// the standard library calls through an interface) on reached types, so
// it over-approximates what runs and never flags live code.
func TestReachability(t *testing.T) {
	m := loadReachModule(t)
	fromPrograms := m.reach(m.roots)
	for key := range reachAllowed {
		if m.decls[key] == nil {
			t.Errorf("reachAllowed names %s, which is not declared", key)
		} else if fromPrograms[key] {
			t.Errorf("reachAllowed names %s, which a program reaches: drop the entry", key)
		}
	}
	roots := append([]string(nil), m.roots...)
	for key := range reachAllowed {
		roots = append(roots, key)
	}
	reached := m.reach(roots)
	var dead []string
	for key, d := range m.decls {
		if strings.HasPrefix(d.pkg, "internal/") && !reached[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("no program reaches %s", key)
	}
}

func loadReachModule(t *testing.T) *reachModule {
	t.Helper()
	m := &reachModule{
		decls:   map[string]*reachDecl{},
		methods: map[string][]string{},
		imports: map[string]map[string]bool{},
	}
	fset := token.NewFileSet()
	type parsed struct {
		dir string
		f   *ast.File
	}
	var files []parsed
	pkgNames := map[string]string{} // directory -> package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files = append(files, parsed{dir, f})
		pkgNames[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var rootPkgs []string
	for _, p := range files {
		rf := &reachFile{pkg: p.dir, imports: map[string]string{}}
		if m.imports[p.dir] == nil {
			m.imports[p.dir] = map[string]bool{}
		}
		for _, is := range p.f.Imports {
			path := strings.Trim(is.Path.Value, `"`)
			name := pathpkg.Base(path)
			if dir, ok := reachDir(path); ok {
				name = pkgNames[dir]
				m.imports[p.dir][dir] = true
			}
			if is.Name != nil {
				name = is.Name.Name
			}
			rf.imports[name] = path
		}
		isProgram := p.f.Name.Name == "main" &&
			(strings.HasPrefix(p.dir, "cmd/") || strings.HasPrefix(p.dir, "examples/") || p.dir == "e2ebench")
		if isProgram {
			rootPkgs = append(rootPkgs, p.dir)
		}
		for _, decl := range p.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					key := m.add(p.dir, "", d.Name.Name, d, rf)
					if isProgram && d.Name.Name == "main" {
						m.roots = append(m.roots, key)
					}
					continue
				}
				recv := receiverName(d.Recv.List[0].Type)
				key := m.add(p.dir, recv, d.Name.Name, d, rf)
				tk := p.dir + "." + recv
				m.methods[tk] = append(m.methods[tk], key)
			case *ast.GenDecl:
				// A const group is one unit: its iota sequence is only
				// meaningful whole.
				var group []string
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						m.add(p.dir, "", s.Name.Name, s, rf)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name == "_" {
								continue
							}
							key := m.add(p.dir, "", n.Name, s, rf)
							if d.Tok == token.CONST {
								group = append(group, key)
							}
						}
					}
				}
				for _, key := range group {
					m.decls[key].nodes = append(m.decls[key].nodes, reachNode{d, rf})
				}
			}
		}
	}
	// Every package a program imports runs its init functions.
	seen := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if seen[dir] {
			return
		}
		seen[dir] = true
		for dep := range m.imports[dir] {
			visit(dep)
		}
	}
	for _, dir := range rootPkgs {
		visit(dir)
	}
	for dir := range seen {
		if m.decls[dir+".init"] != nil {
			m.roots = append(m.roots, dir+".init")
		}
	}
	sort.Strings(m.roots)
	return m
}

// add records one declaration node under pkg.[recv.]name and returns
// its key.
func (m *reachModule) add(pkg, recv, name string, n ast.Node, f *reachFile) string {
	key := pkg + "." + name
	if recv != "" {
		key = pkg + "." + recv + "." + name
	}
	d := m.decls[key]
	if d == nil {
		d = &reachDecl{pkg: pkg, name: name}
		m.decls[key] = d
	}
	d.nodes = append(d.nodes, reachNode{n, f})
	return key
}

// reach returns every declaration reachable from roots.
func (m *reachModule) reach(roots []string) map[string]bool {
	reached := map[string]bool{}
	selectors := map[string]bool{}
	var queue []string
	mark := func(key string) {
		if !reached[key] && m.decls[key] != nil {
			reached[key] = true
			queue = append(queue, key)
		}
	}
	for _, r := range roots {
		mark(r)
	}
	for {
		for len(queue) > 0 {
			key := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, n := range m.decls[key].nodes {
				m.walk(n.node, n.file, mark, selectors)
			}
		}
		// Methods of reached types whose name a reached selector uses.
		for tk, keys := range m.methods {
			if !reached[tk] {
				continue
			}
			for _, key := range keys {
				if d := m.decls[key]; selectors[d.name] || implicitMethods[d.name] {
					mark(key)
				}
			}
		}
		if len(queue) == 0 {
			return reached
		}
	}
}

// walk marks every declaration n names: bare identifiers in n's own
// package, and qualified identifiers of imported module packages. Any
// other selector's name is recorded as a possible method call.
func (m *reachModule) walk(n ast.Node, f *reachFile, mark func(string), selectors map[string]bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.SelectorExpr:
			// A package name resolves to no object in its file.
			if id, ok := x.X.(*ast.Ident); ok && id.Obj == nil {
				if path, ok := f.imports[id.Name]; ok {
					if dir, ok := reachDir(path); ok {
						mark(dir + "." + x.Sel.Name)
					}
					return false
				}
			}
			selectors[x.Sel.Name] = true
			m.walk(x.X, f, mark, selectors)
			return false
		case *ast.FuncDecl:
			// The declared name is not a use.
			if x.Recv != nil {
				m.walk(x.Recv, f, mark, selectors)
			}
			m.walk(x.Type, f, mark, selectors)
			if x.Body != nil {
				m.walk(x.Body, f, mark, selectors)
			}
			return false
		case *ast.Field:
			// Nor are parameter, result and field names.
			m.walk(x.Type, f, mark, selectors)
			return false
		case *ast.Ident:
			mark(f.pkg + "." + x.Name)
		}
		return true
	})
}

// reachDir maps an import path of this module (e2ebench/ included) to
// its directory.
func reachDir(path string) (string, bool) {
	return strings.CutPrefix(path, "cdsf/")
}

// receiverName is the base type name of a method receiver.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
