package twobssd_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The design rules: decisions that must not come back undone, each a row
// checked against the syntax of every non-test Go file of the repository
// (benchmark/ read, never written). A rule matches syntax, so a comment
// or a string never trips one, and a package qualifier resolves through
// the file's own imports. Every row plants a fixture that must break it,
// and DESIGN.md states its rule (TestDesignDocs).
var designRules = []rule{
	{name: "No log Reset", in: dirs("wal", "pglite", "kvaof", "jfs"), bad: call("^Reset$", 1),
		planted: []string{"internal/jfs/x.go\nfunc f() { j.log.Reset(p) }"}},
	{name: "One append rule", in: []string{"internal/wal/wal.go"}, bad: callIn("Append", "ringed"),
		planted: []string{"internal/wal/wal.go\nfunc (l *Log) Append() { if l.ringed() {} }"}},
	{name: "One counter surface", exempt: dirs("lsm"), bad: method("^[A-Za-z]*Stats$"),
		planted: []string{"internal/core/x.go\nfunc (s *S) ScrubStats() {}", "benchmark/x.go\nfunc (d DB) Stats() {}"}},
	{name: "Artifacts only", exempt: []string{"benchmark/"}, bad: imports("net", "net/http"),
		planted: []string{"cmd/bench2b/x.go\nimport \"net/http\"", "internal/obs/x.go\nimport n \"net\""}},
	{name: "One thread runs a simulation", in: dirs("sim", "fleet"), bad: imports("sync", "sync/atomic"),
		planted: []string{"internal/fleet/x.go\nimport \"sync/atomic\"", "internal/sim/x.go\nimport s \"sync\"\nvar mu s.Mutex"}},
	{name: "One event queue", in: dirs("sim"), bad: ident("^(horizon|lookahead|peekNext)$"),
		planted: []string{"internal/sim/x.go\nvar horizon Time", "internal/sim/x.go\nfunc f() { e.k.peekNext() }"}},
	{name: "Procs are coroutines", in: dirs("sim"), bad: syntax("chan", "send", "recv", "go"),
		planted: []string{"internal/sim/x.go\nvar wake chan struct{}", "internal/sim/x.go\nfunc f() { c <- 1 }",
			"internal/sim/x.go\nfunc f() { <-c }", "internal/sim/x.go\nfunc f() { go g() }"}},
	{name: "go only in the runner", exempt: []string{"internal/bench/parallel.go", "internal/bench/run.go"}, bad: syntax("go"),
		planted: []string{"internal/bench/x.go\nfunc f() { go g() }", "benchmark/x.go\nfunc f() { go g() }"}},
	{name: "Every mapped page carries its CRC", in: dirs("nand", "ftl", "device", "core"), bad: ident("^(tagged|ReadPageTagged)$|oobTag"),
		planted: []string{"internal/ftl/x.go\nvar tagged bool", "internal/nand/x.go\nfunc f() { fl.ReadPageTagged(p, 0) }",
			"internal/core/x.go\ntype page struct{ oobTagged bool }"}},
	{name: "One campaign table", bad: anyOf(ident("^(ObsOverhead|NewWalLifeCampaign|RunWalLifeSmoke|runWalLife)$"), firstArg("obsbench")),
		planted: []string{"cmd/bench2b/x.go\nvar _ = fs.Bool(\"obsbench\", false, \"\")", "benchmark/x.go\nvar _ = bench.RunWalLifeSmoke",
			"internal/bench/x.go\nfunc runWalLife(r *Runner, w io.Writer, exp string, pts int) error { return nil }"}},
	{name: "One merge", in: dirs("lsm"), bad: ident("^(SliceStable|parseBlock)$"),
		planted: []string{"internal/lsm/x.go\nfunc f() { sort.SliceStable(es, less) }", "internal/lsm/x.go\nfunc parseBlock() {}"}},
	{name: "Dense map tables", in: dirs("ftl"), bad: mapKey("LBA", "twobssd/internal/nand.PPA"),
		planted: []string{"internal/ftl/x.go\nvar l2p map[LBA]uint32", "internal/ftl/x.go\nimport n \"twobssd/internal/nand\"\nvar p2l map[n.PPA]uint32"}},
	// Revision A of the benchmark deletes the wrappers and this exemption.
	{name: "One read path", bad: call("^ReadPages?$", -1),
		exempt:  []string{"benchmark/", "internal/nand/nand.go", "internal/ftl/ftl.go", "internal/device/device.go"},
		planted: []string{"internal/vfs/x.go\nfunc f() { d.ReadPages(p, 0, 1) }", "internal/nand/x.go\nfunc f() { fl.ReadPage(p, 0) }"}},
	{name: "One fork-join", exempt: dirs("sim", "fleet"), bad: call("^(NewWaitGroup|GoIdx)$", -1),
		planted: []string{"internal/core/x.go\nfunc f() { e.NewWaitGroup(\"dump\") }", "benchmark/x.go\nfunc f() { e.GoIdx(\"w\", 0, g) }"}},
	{name: "gofmt", tests: true, bad: gofmt,
		planted: []string{"internal/sim/x_test.go\nfunc  f() {}", "benchmark/x.go\nvar  n = 1"}},
	{name: "Power-on reads the media", in: dirs("core"), bad: ident("^(dumpValid|HasDump)$"),
		planted: []string{"internal/core/x.go\ntype recovery struct{ dumpValid bool }", "internal/core/x.go\nfunc f() bool { return s.HasDump() }"}},
	{name: "Engines serve the traffic they get", in: dirs("lsm", "kvaof", "pglite", "fleet"),
		bad: anyOf(ident("^(WriteBatch|recBatch|NewIterator|cmdIncr|cmdAppend|recDelete|cmdDel|tombstone|tombstoneLen|dropTombstones|bottomAfter|Range)$"), declares(`^Txn\.Scan$`)),
		planted: []string{"internal/lsm/x.go\ntype WriteBatch struct{}", "internal/lsm/x.go\nfunc f() { db.NewIterator(p, nil) }",
			"internal/lsm/x.go\nconst recBatch = byte(3)", "internal/kvaof/x.go\nconst cmdIncr = byte(3)", "internal/kvaof/x.go\nvar _ = cmdAppend",
			"internal/lsm/x.go\nconst recDelete = byte(2)", "internal/kvaof/x.go\nfunc f() []byte { return []byte{cmdDel} }",
			"internal/lsm/x.go\ntype entry struct{ tombstone bool }", "internal/lsm/x.go\nconst tombstoneLen = 0xFFFFFFFF",
			"internal/lsm/x.go\nfunc (db *DB) mergeTables(dropTombstones bool) {}", "internal/lsm/x.go\nfunc f() bool { return db.bottomAfter(1) }",
			"internal/pglite/x.go\nfunc (t *Txn) Scan(p *sim.Proc, table string) {}", "internal/fleet/x.go\nfunc f() { cfg.Policy = Range }"}},
	{name: "A violation is replayed, not recorded", bad: ident("^(EnableFlightRecorder|newRingTracer|RepairReport|RepairReporter|FaultCounts)$"),
		planted: []string{"internal/fault/x.go\nfunc f() { obs.Of(env).EnableFlightRecorder() }", "internal/obs/x.go\nfunc newRingTracer() *Tracer { return nil }",
			"internal/wal/x.go\ntype RepairReport struct{ Failure string }", "internal/bench/x.go\nvar _ fault.RepairReporter",
			"internal/fault/x.go\ntype PointResult struct{ Faults FaultCounts }"}},
	// bench.Run runs artifacts, not campaign points: its file is exempt.
	{name: "One campaign engine", in: dirs("fault", "oracle", "bench"), exempt: []string{"internal/bench/run.go"},
		bad: declares(`^(Shrink|ShrinkReport|MaxShrinkReplays|Run|Replay|replay|RunFuzz|runFuzz|FuzzReport|Campaign\.(shrink|replay|runTrial)|(Point)?Result\.Flight|Planner|Auditor|(\w+\.)?(FaultPlan|Broken))$`),
		planted: []string{"internal/oracle/x.go\nfunc Shrink(seed uint64, ops []Op) ShrinkReport { return ShrinkReport{} }",
			"internal/oracle/x.go\nconst MaxShrinkReplays = 200", "internal/oracle/x.go\nfunc replay(seed uint64, traced bool) {}",
			"internal/fault/x.go\nfunc (c *Campaign[C, R]) shrink() {}", "internal/fault/x.go\ntype PointResult struct{ Flight *obs.FlightDump }",
			"internal/bench/x.go\ntype FuzzReport struct{}", "internal/bench/x.go\nfunc RunFuzz(r *Runner) error { return nil }",
			"internal/fault/x.go\ntype Planner interface{ FaultPlan() Plan }", "internal/fault/x.go\nfunc (p Plan) FaultPlan() Plan { return p }",
			"internal/fault/x.go\ntype Auditor interface{ Audit() error }", "internal/oracle/x.go\nfunc (r Result) Broken(why string) Result { return r }"}},
	{name: "Faults a campaign sweeps",
		bad: ident("^(ProgramFailOneIn|EraseFailOneIn|TimeoutOneIn|EnduranceCycles|ErrProgramFailed|ErrEraseFailed|ErrWornOut|maybeTimeout|retireBlock|SalvageRead|MarkBad|IsBad|ErrBadBlock)$"),
		planted: []string{"internal/fault/x.go\ntype Plan struct{ ProgramFailOneIn uint64 }", "internal/fault/x.go\nvar _ = Plan{EraseFailOneIn: 5}",
			"internal/bench/x.go\nfunc f(plan *fault.Plan) { plan.TimeoutOneIn = 3 }", "internal/nand/x.go\ntype Config struct{ EnduranceCycles int }",
			"internal/nand/x.go\nvar ErrProgramFailed = errors.New(\"nand: page program failed\")", "internal/ftl/x.go\nvar _ = nand.ErrEraseFailed",
			"internal/core/x.go\nfunc f(err error) bool { return errors.Is(err, nand.ErrWornOut) }", "internal/device/x.go\nfunc (d *Device) maybeTimeout(p *sim.Proc) {}",
			"internal/nand/x.go\nfunc (f *Flash) MarkBad(blk BlockID) { f.blocks[blk].bad = true }",
			"internal/ftl/x.go\nfunc (f *FTL) f(p *sim.Proc, ppa nand.PPA) error { return f.flash.SalvageRead(p, ppa) }"}},
	{name: "A rate ends at its last ack", in: dirs("bench"), bad: callAfter("Now", "Run"),
		planted: []string{"internal/bench/x.go\nfunc f() float64 { st.env.Run(); return n / sim.Duration(st.env.Now()).Seconds() }",
			"internal/bench/x.go\nfunc f() { e.Run()\nelapsed := sim.Duration(e.Now() - start)\n_ = elapsed }"}},
	{name: "One closed loop", bad: anyOf(imports("twobssd/internal/fio"), pkgRef("twobssd/internal/ycsb", "Run"),
		pkgRef("twobssd/internal/linkbench", "Run"), ident("^lastDone$")),
		planted: []string{"internal/bench/x.go\nimport \"twobssd/internal/fio\"", "cmd/walsim/x.go\nimport y \"twobssd/internal/ycsb\"\nvar _ = y.Run",
			"internal/bench/x.go\nimport \"twobssd/internal/linkbench\"\nfunc f() { linkbench.Run(env, g, cfg, 8, 3000) }",
			"internal/bench/x.go\nfunc f() { if e.Now() > lastDone { lastDone = e.Now() } }"}},
	{name: "One copy of an LBA programs at a time", in: dirs("device"), bad: ident("^(inflightDone|landed)$"),
		planted: []string{"internal/device/x.go\nfunc (d *Device) f(p *sim.Proc) { d.inflightDone.Wait(p) }",
			"internal/device/x.go\ntype lbaBuf struct{ landed int }"}},
	{name: "Housekeeping off the write path", in: dirs("ftl", "device"), bad: callOutside("^(collect|evacuate)$", "collector", "collect"),
		planted: []string{"internal/ftl/x.go\nfunc (f *FTL) WritePageTagged(p *sim.Proc) { if f.trigger() { f.collect(p) } }",
			"internal/device/x.go\nfunc (d *Device) drainLoop(p *sim.Proc) { go func() { d.ftl.evacuate(p, 0) }() }",
			"internal/ftl/x.go\nfunc (f *FTL) hostPage(p *sim.Proc) { f.evacuate(p, f.victim()) }"}},
	{name: "A trace is one unit", in: dirs("obs"), bad: ident("^(sortedSets|canonicalJSON)$"),
		planted: []string{"internal/obs/x.go\nfunc (c *Collector) sortedSets() []*Set { return nil }",
			"internal/obs/x.go\nfunc f(s *Set) string { return canonicalJSON(s.Snapshot()) }"}},
	{name: "One run path", exempt: []string{"internal/bench/run.go", "benchmark/"},
		bad: anyOf(pkgCall("twobssd/internal/obs", "NewCollector"), call("^Install$", 0)),
		planted: []string{"cmd/bench2b/x.go\nimport \"twobssd/internal/obs\"\nvar col = obs.NewCollector(false)",
			"internal/bench/x.go\nimport o \"twobssd/internal/obs\"\nfunc f() { o.NewCollector(true).Install() }",
			"internal/bench/x.go\nfunc f(col *obs.Collector) { col.Install(); defer col.Uninstall() }"}},
}

type rule struct {
	name    string   // as DESIGN.md names it: row "<name>"
	in      []string // path prefixes the rule covers; none: every file
	exempt  []string // path prefixes it skips
	tests   bool     // it covers _test.go files too
	bad     matcher
	planted []string // "pretend/path.go\ndeclarations" that must break it
}

func dirs(names ...string) (out []string) {
	for _, n := range names {
		out = append(out, "internal/"+n+"/")
	}
	return out
}

func (r *rule) covers(path string) bool {
	under := func(prefixes []string) bool {
		return slices.ContainsFunc(prefixes, func(pre string) bool { return strings.HasPrefix(path, pre) })
	}
	return (r.tests || !strings.HasSuffix(path, "_test.go")) && (len(r.in) == 0 || under(r.in)) && !under(r.exempt)
}

// A source is a file's text and the package each import name refers to.
type source struct {
	text    []byte
	imports map[string]string
}

// A matcher reports whether node n of file s breaks a rule.
type matcher func(n ast.Node, s *source) bool

func imports(paths ...string) matcher {
	return func(n ast.Node, _ *source) bool {
		spec, ok := n.(*ast.ImportSpec)
		return ok && slices.Contains(paths, unquote(spec.Path))
	}
}

func ident(re string) matcher {
	rx := regexp.MustCompile(re)
	return func(n ast.Node, _ *source) bool {
		id, ok := n.(*ast.Ident)
		return ok && rx.MatchString(id.Name)
	}
}

// call matches a call of a function or method whose name matches re,
// with nargs arguments (-1: any number).
func call(re string, nargs int) matcher {
	rx := regexp.MustCompile(re)
	return func(n ast.Node, _ *source) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || (nargs >= 0 && len(c.Args) != nargs) {
			return false
		}
		fun := c.Fun
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			fun = sel.Sel
		}
		id, ok := fun.(*ast.Ident)
		return ok && rx.MatchString(id.Name)
	}
}

// pkgCall matches a call of the function name of the package whose
// import path is path.
func pkgCall(path, name string) matcher {
	ref := pkgRef(path, name)
	return func(n ast.Node, s *source) bool {
		c, ok := n.(*ast.CallExpr)
		return ok && ref(c.Fun, s)
	}
}

// pkgRef matches any use of name, qualified by the package whose import
// path is path.
func pkgRef(path, name string) matcher {
	return func(n ast.Node, s *source) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && sel.Sel.Name == name && s.imports[pkg.Name] == path
	}
}

// callIn matches a function or method named fn whose body calls callee.
func callIn(fn, callee string) matcher {
	return callsFrom("^"+callee+"$", func(name string) bool { return name == fn })
}

// callOutside matches a function or method, other than those named
// fns, whose body calls a function or method whose name matches callee.
func callOutside(callee string, fns ...string) matcher {
	return callsFrom(callee, func(name string) bool { return !slices.Contains(fns, name) })
}

// callsFrom matches a function or method whose name passes in and whose
// body calls one whose name matches callee.
func callsFrom(callee string, in func(name string) bool) matcher {
	calls := call(callee, -1)
	return func(n ast.Node, s *source) bool {
		d, ok := n.(*ast.FuncDecl)
		found := false
		if ok && in(d.Name.Name) && d.Body != nil {
			ast.Inspect(d.Body, func(m ast.Node) bool { found = found || calls(m, s); return !found })
		}
		return found
	}
}

// callAfter matches a block in which a statement calls fn after an
// earlier statement of the block called run with no arguments: reading
// an environment's clock once it has run to idle.
func callAfter(fn, run string) matcher {
	calls, ran := call("^"+fn+"$", -1), call("^"+run+"$", 0)
	in := func(stmt ast.Stmt, m matcher, s *source) (found bool) {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if _, lit := n.(*ast.FuncLit); lit {
				return false // a process body runs on its own clock
			}
			found = found || m(n, s)
			return !found
		})
		return found
	}
	return func(n ast.Node, s *source) bool {
		b, ok := n.(*ast.BlockStmt)
		if !ok {
			return false
		}
		for i, stmt := range b.List {
			if in(stmt, ran, s) {
				return slices.ContainsFunc(b.List[i+1:], func(later ast.Stmt) bool { return in(later, calls, s) })
			}
		}
		return false
	}
}

func method(re string) matcher {
	rx := regexp.MustCompile(re)
	return func(n ast.Node, _ *source) bool {
		d, ok := n.(*ast.FuncDecl)
		return ok && d.Recv != nil && rx.MatchString(d.Name.Name)
	}
}

// syntax matches goroutine and channel syntax: "go" statements, "chan"
// types, "send" statements and "recv" expressions.
func syntax(kinds ...string) matcher {
	return func(n ast.Node, _ *source) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return slices.Contains(kinds, "go")
		case *ast.ChanType:
			return slices.Contains(kinds, "chan")
		case *ast.SendStmt:
			return slices.Contains(kinds, "send")
		case *ast.UnaryExpr:
			return n.Op == token.ARROW && slices.Contains(kinds, "recv")
		}
		return false
	}
}

// mapKey matches a map type keyed by one of types; a qualified type is
// named by its package's import path ("twobssd/internal/nand.PPA").
func mapKey(types ...string) matcher {
	return func(n ast.Node, s *source) bool {
		m, ok := n.(*ast.MapType)
		if !ok {
			return false
		}
		key := ""
		switch k := m.Key.(type) {
		case *ast.Ident:
			key = k.Name
		case *ast.SelectorExpr:
			if pkg, ok := k.X.(*ast.Ident); ok {
				key = s.imports[pkg.Name] + "." + k.Sel.Name
			}
		}
		return slices.Contains(types, key)
	}
}

// declares matches a declaration whose qualified name matches re: a
// function, Type.Method, a type, Type.Field of a struct, or a constant
// or variable.
func declares(re string) matcher {
	rx := regexp.MustCompile(re)
	return func(n ast.Node, _ *source) bool {
		var names []string
		switch d := n.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name.Name)
			if d.Recv != nil {
				names[0] = receiver(d.Recv.List[0].Type) + "." + d.Name.Name
			}
		case *ast.TypeSpec:
			names = append(names, d.Name.Name)
			if st, ok := d.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, id := range f.Names {
						names = append(names, d.Name.Name+"."+id.Name)
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range d.Names {
				names = append(names, id.Name)
			}
		}
		return slices.ContainsFunc(names, rx.MatchString)
	}
}

// receiver names a method's receiver type, pointer and type arguments
// stripped.
func receiver(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// firstArg matches a call whose first argument is the string literal lit.
func firstArg(lit string) matcher {
	return func(n ast.Node, _ *source) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || len(c.Args) == 0 {
			return false
		}
		b, ok := c.Args[0].(*ast.BasicLit)
		return ok && b.Kind == token.STRING && unquote(b) == lit
	}
}

func anyOf(ms ...matcher) matcher {
	return func(n ast.Node, s *source) bool {
		return slices.ContainsFunc(ms, func(m matcher) bool { return m(n, s) })
	}
}

// gofmt matches a file that differs from what go/format makes of it.
func gofmt(n ast.Node, s *source) bool {
	if _, ok := n.(*ast.File); !ok {
		return false
	}
	out, err := format.Source(s.text)
	return err != nil || !bytes.Equal(out, s.text)
}

func unquote(lit *ast.BasicLit) string {
	s, _ := strconv.Unquote(lit.Value)
	return s
}

// A violation is a node that breaks a rule: where, and which rule.
type violation struct{ at, rule string }

// violations parses one file and lists every node of it that breaks a
// rule covering its path.
func violations(t *testing.T, path string, text []byte) []violation {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, text, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	s := &source{text: text, imports: map[string]string{}}
	for _, spec := range f.Imports {
		p := unquote(spec.Path)
		name := p[strings.LastIndex(p, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		s.imports[name] = p
	}
	var out []violation
	for i := range designRules {
		if r := &designRules[i]; r.covers(path) {
			ast.Inspect(f, func(n ast.Node) bool {
				if n != nil && r.bad(n, s) {
					out = append(out, violation{fmt.Sprintf("%s:%d", path, fset.Position(n.Pos()).Line), r.name})
				}
				return true
			})
		}
	}
	return out
}

type goFile struct {
	path string // slash-separated
	text []byte
}

// goFiles reads every Go file of the repository, test files included,
// in lexical order. It skips hidden directories and testdata.
func goFiles(t *testing.T) []goFile {
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		text, err := os.ReadFile(path)
		files = append(files, goFile{filepath.ToSlash(path), text})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestDesignRules(t *testing.T) {
	files := goFiles(t)
	doc := readDesign(t)
	for _, f := range files {
		for _, v := range violations(t, f.path, f.text) {
			t.Errorf("%s: %s (DESIGN.md %s)", v.at, v.rule, doc.home(v.rule))
		}
	}
	for _, r := range designRules {
		// A prefix that names nothing would turn its rule off unseen.
		for _, pre := range append(slices.Clip(r.in), r.exempt...) {
			if !slices.ContainsFunc(files, func(f goFile) bool { return strings.HasPrefix(f.path, pre) }) {
				t.Errorf("%s: %s names no file", r.name, pre)
			}
		}
		for _, fx := range r.planted {
			path, decls, _ := strings.Cut(fx, "\n")
			if !slices.ContainsFunc(violations(t, path, []byte("package p\n\n"+decls+"\n")),
				func(v violation) bool { return v.rule == r.name }) {
				t.Errorf("%s: planted %q passes", r.name, fx)
			}
		}
	}
	// A comment or a string is not code.
	clean := []byte("// Package p mentions tagged, horizon, go f(), c <- 1 and map[LBA]int.\npackage p\n\n" +
		"import \"fmt\"\n\nvar _ = fmt.Sprint(\"tagged\", \"horizon\", \"sync\", \"obsbench\", \"<-c\")\n")
	for _, path := range []string{"internal/sim/p.go", "internal/ftl/p.go"} {
		if v := violations(t, path, clean); len(v) > 0 {
			t.Errorf("a comment or string tripped a rule: %v", v)
		}
	}
}

// design is DESIGN.md as the docs lint reads it: its section numbers
// ("7", "6.2") and, for every row it names as row "<name>", the
// sections that name it.
type design struct {
	sections []string
	rows     map[string][]string
	text     string
}

var (
	heading       = regexp.MustCompile(`(?m)^##+ `)
	sectionNumber = regexp.MustCompile(`^(\d+(?:\.\d+)?)[. ]`)
	rowName       = regexp.MustCompile(`\b[Rr]ow "([^"]+)"`)
)

func readDesign(t *testing.T) *design {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	d := &design{rows: map[string][]string{}, text: string(text)}
	// Each part after the preamble runs from one heading to the next. A
	// row's name may wrap, so it is matched with the whitespace folded.
	for _, part := range heading.Split(d.text, -1)[1:] {
		m := sectionNumber.FindStringSubmatch(part)
		if m == nil {
			continue
		}
		d.sections = append(d.sections, m[1])
		for _, r := range rowName.FindAllStringSubmatch(strings.Join(strings.Fields(part), " "), -1) {
			d.rows[r[1]] = append(d.rows[r[1]], m[1])
		}
	}
	return d
}

// home is the section of DESIGN.md that states the rule row enforces.
func (d *design) home(row string) string {
	if s := d.rows[row]; len(s) > 0 {
		return "§" + s[0]
	}
	return "names no section for it"
}

// TestDesignDocs is the docs lint of the rule book, both ways. Every row
// of designRules is named in DESIGN.md exactly once, in the section
// whose rule it enforces, and every row, test, fuzz target or benchmark
// DESIGN.md names exists. Every "DESIGN.md §N" (or "section N") that a
// Go file, README.md, EXPERIMENTS.md, the verify skill or CI cites, and
// every "§N" inside DESIGN.md, is a numbered heading of it. Every
// "ROADMAP item N" that README.md, EXPERIMENTS.md, DESIGN.md or the
// verify skill cites is an open item of ROADMAP.md. DESIGN.md states
// what is: it cites no PR. CHANGES.md and ROADMAP.md are history and
// plan, and are not otherwise read.
func TestDesignDocs(t *testing.T) {
	doc := readDesign(t)
	for _, r := range designRules {
		switch s := doc.rows[r.name]; len(s) {
		case 0:
			t.Errorf("DESIGN.md names no row %q", r.name)
		case 1:
		default:
			t.Errorf("DESIGN.md names row %q in §%s: name it once, where its rule is stated", r.name, strings.Join(s, ", §"))
		}
	}
	for name := range doc.rows {
		if !slices.ContainsFunc(designRules, func(r rule) bool { return r.name == name }) {
			t.Errorf("DESIGN.md names row %q, which designRules does not have", name)
		}
	}

	files := goFiles(t)
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	for _, f := range files {
		if strings.HasSuffix(f.path, "_test.go") {
			for _, m := range decl.FindAllSubmatch(f.text, -1) {
				declared[string(m[1])] = true
			}
		}
	}
	for _, m := range regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`).FindAllString(doc.text, -1) {
		if !declared[m] {
			t.Errorf("DESIGN.md names %s, which no test file declares", m)
		}
	}
	if m := regexp.MustCompile(`\b(?:PRs?|ISSUE) \d+`).FindAllString(doc.text, -1); m != nil {
		t.Errorf("DESIGN.md cites %q: the history is CHANGES.md's and git's", m)
	}

	cites := files
	ci, _ := filepath.Glob(".github/workflows/*.yml")
	for _, path := range append([]string{"README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}, ci...) {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cites = append(cites, goFile{path, text})
	}
	check := func(path, cited string) {
		if !slices.Contains(doc.sections, cited) {
			t.Errorf("%s cites DESIGN.md §%s, which is no heading of it", path, cited)
		}
	}
	external := regexp.MustCompile(`DESIGN\.md,?\s+(?:§\s*|section\s+)(\d+(?:\.\d+)?)`)
	for _, f := range cites {
		for _, m := range external.FindAllSubmatch(f.text, -1) {
			check(f.path, string(m[1]))
		}
	}
	for _, m := range regexp.MustCompile(`§(\d+(?:\.\d+)?)`).FindAllStringSubmatch(doc.text, -1) {
		check("DESIGN.md", m[1])
	}

	// Every "ROADMAP item N" (or "items N, M") the documents cite is an
	// open item. benchmark/ is read, never written, so its README is not.
	open := openItems(t)
	if bad := unknownItems("see ROADMAP item 99 and ROADMAP items 2, 1A and 98", open); !slices.Equal(bad, []string{"99", "98"}) {
		t.Errorf("planted citations of items 99 and 98 give %v", bad)
	}
	for _, path := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range unknownItems(string(text), open) {
			t.Errorf("%s cites ROADMAP item %s, which is no open item of it", path, id)
		}
	}
}

// openItems lists the ids of ROADMAP.md's open items: each "N. **"
// item of its "## Open items" section and each "**NA." sub-item.
func openItems(t *testing.T) map[string]bool {
	text, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, items, _ := strings.Cut(string(text), "\n## Open items\n")
	items, _, _ = strings.Cut(items, "\n## ")
	ids := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(\d+)\. \*\*|\*\*(\d+[A-Z])\.`).FindAllStringSubmatch(items, -1) {
		ids[m[1]+m[2]] = true
	}
	return ids
}

// unknownItems lists, in order, the item ids text cites as "ROADMAP
// item N" or "ROADMAP items N, M and K" that open does not hold.
func unknownItems(text string, open map[string]bool) (bad []string) {
	cite := regexp.MustCompile(`ROADMAP\s+items?\s+(\d+[A-Z]?(?:(?:,\s*|\s+and\s+|\s*[–-]\s*)\d+[A-Z]?)*)`)
	for _, m := range cite.FindAllStringSubmatch(text, -1) {
		for _, id := range regexp.MustCompile(`\d+[A-Z]?`).FindAllString(m[1], -1) {
			if !open[id] {
				bad = append(bad, id)
			}
		}
	}
	return bad
}

// TestDesignDocsCiteDeclaredNames is the docs lint for cited code: every
// `pkg.Name` span of README.md, DESIGN.md, EXPERIMENTS.md or the verify
// skill, pkg one of internal/'s packages, names a declaration of that
// package — a function, method, type, constant or variable — or a name
// a design row bans. Spans in fenced blocks and lower-case names
// (counters such as `wal.seg_commits`) are not read.
func TestDesignDocsCiteDeclaredNames(t *testing.T) {
	decls := map[string]map[string]bool{} // package → its top-level names
	for _, f := range goFiles(t) {
		pkg, file, _ := strings.Cut(strings.TrimPrefix(f.path, "internal/"), "/")
		if !strings.HasPrefix(f.path, "internal/") || strings.Contains(file, "/") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f.path, f.text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, d := range af.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[pkg][d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decls[pkg][s.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							decls[pkg][id.Name] = true
						}
					}
				}
			}
		}
	}
	planted := "`oracle.WalModel`, `oracle.WalLifecycle`, `wal.Log.Append`, `ycsb.Run`, `wal.seg_commits`, `fs.Bool`\n" +
		"```go\nx := `oracle.Nope`\n```\n"
	if got := strayCitations(t, planted, decls); !slices.Equal(got, []string{"oracle.WalModel"}) {
		t.Errorf("the planted citations give %v, want [oracle.WalModel]", got)
	}
	for _, path := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range strayCitations(t, string(text), decls) {
			t.Errorf("%s cites `%s`, which its package does not declare and no design row bans", path, c)
		}
	}
}

var (
	fenced   = regexp.MustCompile("(?s)```.*?```")
	codeSpan = regexp.MustCompile("`([^`]+)`")
	pkgName  = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)`)
)

// strayCitations lists, in order, the `pkg.Name` spans of text whose
// package decls holds but whose name it does not declare and no design
// row bans: a ban is tried as a use of the name in its own package.
func strayCitations(t *testing.T, text string, decls map[string]map[string]bool) (bad []string) {
	for _, span := range codeSpan.FindAllStringSubmatch(fenced.ReplaceAllString(text, ""), -1) {
		m := pkgName.FindStringSubmatch(span[1])
		if m == nil || decls[m[1]] == nil || decls[m[1]][m[2]] {
			continue
		}
		use := fmt.Sprintf("package p\n\nimport %q\n\nvar _ = %s.%s\n", "twobssd/internal/"+m[1], m[1], m[2])
		if len(violations(t, "internal/"+m[1]+"/x.go", []byte(use))) == 0 {
			bad = append(bad, m[0])
		}
	}
	return bad
}
