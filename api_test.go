package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// allowlistFile names the identifiers in internal/ that no program reads
// but that stay on purpose, one per line as "pkg.Name<TAB>reason": exported
// names no other package reads, package-private test seams, and, as
// "pkg.Type.Field<TAB>reason", config fields no program sets.
const allowlistFile = "api_allowlist.txt"

// The three reasons an allowlist line may give.
var reasonForms = []*regexp.Regexp{
	regexp.MustCompile(`^test seam: ([a-z0-9]+(?:, [a-z0-9]+)*)$`),
	regexp.MustCompile("^claim ([EA][0-9]+): (Test[A-Za-z0-9_]+)$"),
	regexp.MustCompile(`^paper (?:Fig\. [0-9]+|§[0-9.]+): \S.*$`),
}

// goFile is one parsed Go file of the module tree (bench/ included).
type goFile struct {
	dir  string // slash-separated, relative to the repository root
	test bool
	ast  *ast.File
}

// apiPackage is one internal/ package under the lister.
type apiPackage struct {
	name     string
	dir      string
	exported map[string]ast.Node // top-level exported func, type, var, const
	methods  map[string][]*ast.FuncDecl
	decls    map[string]ast.Node // every top-level type, exported or not
}

// apiIndex is what the lister knows of the tree.
type apiIndex struct {
	files []goFile
	pkgs  map[string]*apiPackage // by import path
	// read[path][name] is set when a non-test file of another package
	// writes pkg.Name, or a read name's exported signature names it.
	read    map[string]map[string]bool
	named   map[string]map[string]bool            // named by an allowlisted name's signature
	ownUse  map[string]map[string]bool            // a non-test file of its own package uses it
	testUse map[string]map[string]map[string]bool // path → name → package names of the tests that use it
	// private holds the package-private top-level names of every
	// internal/ package, keyed "pkg.name".
	private map[string]*privateName
}

// privateName is a package-private top-level func, type, var or const.
type privateName struct {
	pos    token.Position
	decl   ast.Node
	used   bool // named by a non-test file of its package beyond its declaration
	tested bool // named by a test file of its package
}

// loadAPI parses every Go file of the module tree and resolves which
// exported identifiers of the non-test-imported internal/ packages have
// readers. The allowlisted names (pkg.Name) stay exported, so what their
// signatures name stays exported too.
func loadAPI(t *testing.T, allowed map[string]allowLine) *apiIndex {
	t.Helper()
	fset := token.NewFileSet()
	x := &apiIndex{
		read:    map[string]map[string]bool{},
		named:   map[string]map[string]bool{},
		ownUse:  map[string]map[string]bool{},
		testUse: map[string]map[string]map[string]bool{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		x.files = append(x.files, goFile{dir: filepath.ToSlash(filepath.Dir(p)), test: strings.HasSuffix(p, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	x.pkgs = listerPackages(x.files)

	byDirName := map[string]string{} // directory → package name, tests' _test suffix dropped
	for _, f := range x.files {
		byDirName[f.dir] = strings.TrimSuffix(f.ast.Name.Name, "_test")
	}
	for _, f := range x.files {
		imports := importNames(f.ast, x.pkgs)
		own := x.pkgs["repro/"+f.dir]
		useBy := func(p, name string) {
			if !f.test {
				mark(x.read, p, name)
				return
			}
			if x.testUse[p] == nil {
				x.testUse[p] = map[string]map[string]bool{}
			}
			if x.testUse[p][name] == nil {
				x.testUse[p][name] = map[string]bool{}
			}
			x.testUse[p][name][byDirName[f.dir]] = true
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						useBy(p, n.Sel.Name)
						return false
					}
				}
				ast.Inspect(n.X, visit) // n.Sel is a field or method, not a top-level name
				return false
			case *ast.Ident:
				if own == nil || f.ast.Name.Name != own.name {
					return true
				}
				if decl, ok := own.exported[n.Name]; ok && !introduces(decl, n) {
					if f.test {
						useBy("repro/"+f.dir, n.Name)
					} else {
						mark(x.ownUse, "repro/"+f.dir, n.Name)
					}
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	// A read name's exported signature, field types and exported methods
	// make the names they mention read as well; an allowlisted name's keep
	// theirs exported, too.
	var roots, kept [][2]string
	for p, names := range x.read {
		for n := range names {
			roots = append(roots, [2]string{p, n})
		}
	}
	for p, pkg := range x.pkgs {
		for n := range pkg.exported {
			if _, ok := allowed[pkg.name+"."+n]; ok {
				kept = append(kept, [2]string{p, n})
			}
		}
	}
	x.closeOver(roots, x.read)
	x.closeOver(kept, x.named)
	x.private = loadPrivate(fset, x.files)
	return x
}

// listerPackages collects the packages under the lister, internal/
// packages that a non-test file imports, with their top-level
// declarations. Test helpers (the frozen reference engines, plaintest) are
// imported by tests only and so fall outside.
func listerPackages(files []goFile) map[string]*apiPackage {
	pkgs := map[string]*apiPackage{}
	for _, f := range files {
		if f.test {
			continue
		}
		for _, imp := range f.ast.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if dir, ok := strings.CutPrefix(p, "repro/"); ok && strings.HasPrefix(dir, "internal/") {
				pkgs[p] = &apiPackage{dir: dir, exported: map[string]ast.Node{}, methods: map[string][]*ast.FuncDecl{}, decls: map[string]ast.Node{}}
			}
		}
	}
	for _, f := range files {
		pkg := pkgs["repro/"+f.dir]
		if pkg == nil || f.test {
			continue
		}
		pkg.name = f.ast.Name.Name
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					if r := receiverType(d.Recv.List[0].Type); r != "" {
						pkg.methods[r] = append(pkg.methods[r], d)
					}
				} else if d.Name.IsExported() {
					pkg.exported[d.Name.Name] = d
				}
			case *ast.GenDecl:
				var typ ast.Expr // a const group's type carries over to untyped specs
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						pkg.decls[s.Name.Name] = s
						if s.Name.IsExported() {
							pkg.exported[s.Name.Name] = s
						}
					case *ast.ValueSpec:
						if s.Type != nil || len(s.Values) > 0 {
							typ = s.Type
						}
						for _, n := range s.Names {
							if n.IsExported() {
								pkg.exported[n.Name] = &ast.ValueSpec{Names: []*ast.Ident{n}, Type: typ}
							}
						}
					}
				}
			}
		}
	}
	return pkgs
}

// loadPrivate collects the package-private top-level names declared in
// the non-test files of each internal/ package and marks which files of
// that package name them. A name is named by an identifier spelling it
// outside its own declaration; the part of a selector after the dot, a
// function's or method's own name, a receiver, and a field or parameter
// name are not namings. A local declaration that shadows the name still
// counts as one.
func loadPrivate(fset *token.FileSet, files []goFile) map[string]*privateName {
	private := map[string]*privateName{}
	byDir := map[string]map[string]*privateName{} // dir → name → entry
	add := func(f goFile, id *ast.Ident, decl ast.Node) {
		if id.IsExported() || id.Name == "_" || id.Name == "init" {
			return
		}
		if byDir[f.dir] == nil {
			byDir[f.dir] = map[string]*privateName{}
		}
		p := &privateName{pos: fset.Position(id.Pos()), decl: decl}
		byDir[f.dir][id.Name] = p
		private[f.ast.Name.Name+"."+id.Name] = p
	}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir+"/", "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(f, d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(f, s.Name, s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(f, n, s)
						}
					}
				}
			}
		}
	}
	for _, f := range files {
		names := byDir[f.dir]
		if names == nil || strings.HasSuffix(f.ast.Name.Name, "_test") {
			continue
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ast.Inspect(n.X, visit)
				return false
			case *ast.FuncDecl:
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.Field:
				ast.Inspect(n.Type, visit)
				return false
			case *ast.Ident:
				p := names[n.Name]
				if p == nil || p.decl.Pos() <= n.Pos() && n.End() <= p.decl.End() {
					return true
				}
				if f.test {
					p.tested = true
				} else {
					p.used = true
				}
			}
			return true
		}
		for _, d := range f.ast.Decls {
			ast.Inspect(d, visit)
		}
	}
	return private
}

// knobType is one config type under the knob pass: an exported struct
// type named Config or …Config, or failover.RetryPolicy.
type knobType struct {
	path    string   // import path of its package
	key     string   // pkg.Type
	fields  []string // its exported fields, in declaration order
	methods map[string]bool
	// set[field] holds the directories (internal/ dropped) of the
	// non-test files of other packages that write it, tested[field] the
	// package names of the tests that do.
	set, tested map[string]map[string]bool
}

// knobTypes finds the config types of the lister's packages and who writes
// their exported fields. A field is written as a key of a literal of its
// type (pkg.Type{F: …}, or an element of a slice or map of it whose type
// is elided), or by an assignment x.F = … in a file that imports its
// package. A literal of an alias (type A = pkg.Type) writes the fields of
// the type it names. The assignment is matched by name alone, so it can
// only count a field as written that is not.
func knobTypes(files []goFile, pkgs map[string]*apiPackage) []*knobType {
	byKey := map[[2]string]*knobType{} // import path, type name
	var out []*knobType
	for p, pkg := range pkgs {
		for n, decl := range pkg.exported {
			ts, ok := decl.(*ast.TypeSpec)
			if !ok || !strings.HasSuffix(n, "Config") && pkg.name+"."+n != "failover.RetryPolicy" {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			k := &knobType{path: p, key: pkg.name + "." + n, methods: map[string]bool{}, set: map[string]map[string]bool{}, tested: map[string]map[string]bool{}}
			for _, m := range pkg.methods[n] {
				k.methods[m.Name.Name] = true
			}
			for _, fld := range st.Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() {
						k.fields = append(k.fields, id.Name)
					}
				}
			}
			byKey[[2]string{p, n}] = k
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	for _, f := range files {
		own := "repro/" + f.dir
		if f.test || pkgs[own] == nil {
			continue
		}
		imports := importNames(f.ast, pkgs)
		for _, d := range f.ast.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
				for _, s := range g.Specs {
					if ts := s.(*ast.TypeSpec); ts.Assign.IsValid() && ts.Name.IsExported() {
						if k := byKey[typeName(ts.Type, own, imports)]; k != nil {
							byKey[[2]string{own, ts.Name.Name}] = k
						}
					}
				}
			}
		}
	}

	for _, f := range files {
		imports := importNames(f.ast, pkgs)
		own := "repro/" + f.dir
		if pkgs[own] != nil && f.ast.Name.Name == pkgs[own].name {
			imports[""] = own
		}
		imported := map[string]bool{}
		for _, p := range imports {
			imported[p] = true
		}
		testPkg := strings.TrimSuffix(f.ast.Name.Name, "_test")
		write := func(k *knobType, field string) {
			switch {
			case f.test:
				mark(k.tested, field, testPkg)
			case k.path != own: // a package setting its own fields is no program turning them
				mark(k.set, field, strings.TrimPrefix(f.dir, "internal/"))
			}
		}
		// typeOf resolves a literal's type to a knob type, through one
		// pointer.
		typeOf := func(e ast.Expr) *knobType {
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			switch e := e.(type) {
			case *ast.Ident:
				if p, ok := imports[""]; ok {
					return byKey[[2]string{p, e.Name}]
				}
			case *ast.SelectorExpr:
				if id, ok := e.X.(*ast.Ident); ok {
					if p, ok := imports[id.Name]; ok {
						return byKey[[2]string{p, e.Sel.Name}]
					}
				}
			}
			return nil
		}
		lit := func(k *knobType, e *ast.CompositeLit) {
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						write(k, id.Name)
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if k := typeOf(n.Type); k != nil {
					lit(k, n)
					return true
				}
				var elem ast.Expr
				switch t := n.Type.(type) {
				case *ast.ArrayType:
					elem = t.Elt
				case *ast.MapType:
					elem = t.Value
				}
				if k := typeOf(elem); k != nil {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							el = kv.Value
						}
						if u, ok := el.(*ast.UnaryExpr); ok {
							el = u.X
						}
						if c, ok := el.(*ast.CompositeLit); ok && c.Type == nil {
							lit(k, c)
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					sel, ok := l.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					for _, k := range out {
						if !imported[k.path] {
							continue
						}
						for _, fld := range k.fields {
							if fld == sel.Sel.Name {
								write(k, fld)
							}
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// closeOver marks in m every name the signatures of work mention,
// transitively.
func (x *apiIndex) closeOver(work [][2]string, m map[string]map[string]bool) {
	seen := map[[2]string]bool{}
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		pkg := x.pkgs[w[0]]
		if pkg == nil || seen[w] {
			continue
		}
		seen[w] = true
		decl := pkg.exported[w[1]]
		if decl == nil {
			decl = pkg.decls[w[1]]
		}
		if decl == nil {
			continue
		}
		var f *ast.File
		for _, g := range x.files {
			if g.dir == pkg.dir && !g.test && within(g.ast, decl) {
				f = g.ast
			}
		}
		imports := importNames(f, x.pkgs)
		named := func(e ast.Node) {
			walkTypes(e, func(p, name string) {
				if p == "" {
					p = w[0]
				} else if p = imports[p]; p == "" {
					return
				}
				if x.pkgs[p] != nil && (x.pkgs[p].exported[name] != nil || x.pkgs[p].decls[name] != nil) {
					mark(m, p, name)
					work = append(work, [2]string{p, name})
				}
			})
		}
		switch d := decl.(type) {
		case *ast.FuncDecl:
			named(d.Type)
		case *ast.ValueSpec:
			if d.Type != nil {
				named(d.Type)
			}
		case *ast.TypeSpec:
			if d.TypeParams != nil {
				named(d.TypeParams)
			}
			named(exportedSurface(d.Type))
			for _, m := range pkg.methods[w[1]] {
				if m.Name.IsExported() {
					named(m.Type)
				}
			}
		}
	}
}

func mark(m map[string]map[string]bool, p, name string) {
	if m[p] == nil {
		m[p] = map[string]bool{}
	}
	m[p][name] = true
}

// importNames maps a file's local names for the lister's packages to
// their import paths.
func importNames(f *ast.File, pkgs map[string]*apiPackage) map[string]string {
	m := map[string]string{}
	if f == nil {
		return m
	}
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if pkgs[p] == nil {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = p
	}
	return m
}

// importedNames is the set of names a file's imports bind: the import's
// own name, else its path's last element ("math/rand/v2" binds rand).
func importedNames(f *ast.File) map[string]bool {
	m := map[string]bool{}
	for _, imp := range f.Imports {
		if imp.Name != nil {
			m[imp.Name.Name] = true
			continue
		}
		p := strings.Trim(imp.Path.Value, `"`)
		name := path.Base(p)
		if v, ok := strings.CutPrefix(name, "v"); ok && v != "" && strings.Trim(v, "0123456789") == "" {
			name = path.Base(path.Dir(p))
		}
		m[name] = true
	}
	return m
}

// walkTypes calls fn for every type name in e: ("", Name) for a name of
// the package itself, (pkg, Name) for a qualified one.
func walkTypes(e ast.Node, fn func(pkg, name string)) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			ast.Inspect(n.Type, visit) // a field or parameter name is no type
			return false
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				fn(id.Name, n.Sel.Name)
			}
			return false
		case *ast.Ident:
			fn("", n.Name)
		}
		return true
	}
	ast.Inspect(e, visit)
}

// exportedSurface drops a struct's unexported fields and an interface's
// unexported methods: only what another package can name is signature.
func exportedSurface(e ast.Expr) ast.Node {
	var keep func(*ast.FieldList) *ast.FieldList
	keep = func(l *ast.FieldList) *ast.FieldList {
		out := &ast.FieldList{}
		for _, fld := range l.List {
			if len(fld.Names) == 0 {
				out.List = append(out.List, fld) // embedded
				continue
			}
			for _, n := range fld.Names {
				if n.IsExported() {
					out.List = append(out.List, fld)
					break
				}
			}
		}
		return out
	}
	switch e := e.(type) {
	case *ast.StructType:
		return keep(e.Fields)
	case *ast.InterfaceType:
		return keep(e.Methods)
	}
	return e
}

// receiverType is the type name a method is declared on.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// introduces reports whether id is the name a declaration introduces.
func introduces(decl ast.Node, id *ast.Ident) bool {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return d.Name == id
	case *ast.TypeSpec:
		return d.Name == id
	case *ast.ValueSpec:
		return d.Names[0] == id
	}
	return false
}

func within(f *ast.File, n ast.Node) bool { return f.Pos() <= n.Pos() && n.End() <= f.End() }

// allowLine is one parsed line of the allowlist.
type allowLine struct {
	line             int
	pkg, name, field string // field is set on a knob line, pkg.Type.Field
	reason           string
}

func (l allowLine) key() string {
	if l.field != "" {
		return l.pkg + "." + l.name + "." + l.field
	}
	return l.pkg + "." + l.name
}

// parseAllowlist reads the allowlist's lines by key, and a problem for
// each line without a valid reason and each key listed twice.
func parseAllowlist(text string) (allowed map[string]allowLine, problems []string) {
	allowed = map[string]allowLine{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for i := 1; sc.Scan(); i++ {
		l := allowLine{line: i}
		name, reason, ok := strings.Cut(sc.Text(), "\t")
		l.pkg, l.name, _ = strings.Cut(name, ".")
		l.name, l.field, _ = strings.Cut(l.name, ".")
		l.reason = reason
		problem := ""
		switch {
		case !ok || strings.TrimSpace(reason) == "":
			problem = "no reason: want pkg.Name<TAB>reason"
		case l.name == "":
			problem = "want pkg.Name"
		default:
			problem = "reason is none of `test seam: <packages>`, `claim <E#/A#>: <home test>`, `paper <Fig./§>: <feature>`"
			for _, re := range reasonForms {
				if re.MatchString(reason) {
					problem = ""
				}
			}
		}
		if _, dup := allowed[l.key()]; dup && problem == "" {
			problem = "listed twice"
		}
		if problem != "" {
			problems = append(problems, fmt.Sprintf("%s:%d: %s: %s", allowlistFile, l.line, l.key(), problem))
			continue
		}
		allowed[l.key()] = l
	}
	return allowed, problems
}

// checkKnobs holds every exported field of the knob types to a program
// that sets it or to an allowlist line pkg.Type.Field with a reason. A
// `test seam:` line names packages whose tests set the field. Lines
// naming a method, or a member of a type that is no config type, are the
// method pass's. It returns one inventory line per type and one line per
// problem.
func checkKnobs(types []*knobType, allowed map[string]allowLine, homes map[string]string) (report, problems []string) {
	fields := map[string]*knobType{} // pkg.Type.Field → its type
	byKey := map[string]*knobType{}
	total, set := 0, 0
	for _, k := range types {
		byKey[k.key] = k
		var bySet, listed []string
		for _, fld := range k.fields {
			key := k.key + "." + fld
			fields[key] = k
			total++
			l, ok := allowed[key]
			switch {
			case len(k.set[fld]) > 0:
				set++
				setters := make([]string, 0, len(k.set[fld]))
				for dir := range k.set[fld] {
					setters = append(setters, dir)
				}
				sort.Strings(setters)
				bySet = append(bySet, fld+" ← "+strings.Join(setters, ", "))
			case ok:
				listed = append(listed, fld+" — "+l.reason)
			default:
				problems = append(problems, key+" is set by no program: make it a constant, or allowlist it with a reason")
			}
		}
		report = append(report, fmt.Sprintf("%s: set by a program: %s; allowlisted: %s", k.key, strings.Join(bySet, "; "), strings.Join(listed, "; ")))
	}
	report = append(report, fmt.Sprintf("%d exported fields in %d config types, %d set by a program", total, len(types), set))

	lines := make([]allowLine, 0, len(allowed))
	for _, l := range allowed {
		if k := byKey[l.pkg+"."+l.name]; k != nil && l.field != "" && !k.methods[l.field] {
			lines = append(lines, l)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].line < lines[j].line })
	for _, l := range lines {
		at := fmt.Sprintf("%s:%d: %s", allowlistFile, l.line, l.key())
		k := fields[l.key()]
		switch {
		case k == nil:
			problems = append(problems, at+" does not exist: drop the line")
			continue
		case len(k.set[l.field]) > 0:
			problems = append(problems, at+" is set by a program now: drop the line")
			continue
		}
		if m := reasonForms[0].FindStringSubmatch(l.reason); m != nil {
			for _, user := range strings.Split(m[1], ", ") {
				if !k.tested[l.field][user] {
					problems = append(problems, fmt.Sprintf("%s: no test of package %s sets it", at, user))
				}
			}
		}
		if m := reasonForms[1].FindStringSubmatch(l.reason); m != nil && homes[m[1]] != m[2] {
			problems = append(problems, fmt.Sprintf("%s: %s is not %s's home test in EXPERIMENTS.md", at, m[2], m[1]))
		}
	}
	return report, problems
}

// stdInterfaces are the method sets of the standard library's interfaces
// that non-test code asserts a type implements; the lister parses and
// does not type-check, so it cannot read them from their packages.
var stdInterfaces = map[string][]string{
	"fmt.Stringer": {"String"},
	"http.Handler": {"ServeHTTP"},
	"slog.Handler": {"Enabled", "Handle", "WithAttrs", "WithGroup"},
}

// apiMethod is one exported method of an exported type of a lister
// package.
type apiMethod struct {
	dir string // its package's
	key string // pkg.Type.Method
	// callers holds the directories (internal/ dropped) of the non-test
	// files of other packages that select the name; asserted names the
	// interface a non-test compile-time assertion holds the type to.
	callers  map[string]bool
	asserted string
	own      bool            // a non-test file of its package selects the name
	tested   map[string]bool // package names of the tests that select it
}

// apiMethods lists the exported methods of the exported types of the
// lister's packages and who calls them. A call is a selector x.Name in any
// file whose x is not one of the file's imports (strings.Contains calls no
// method), matched by the method's name alone, so it can only count a
// method as called that is not. A non-test declaration `var _ I = T{}` (or
// (*T)(nil), &T{}, T(nil)) keeps T's methods of I's method set; problems
// names each asserted interface whose method set the lister cannot read.
func apiMethods(files []goFile, pkgs map[string]*apiPackage) (methods []*apiMethod, problems []string) {
	selects := map[string]map[string]bool{}     // name → dirs of non-test files selecting it
	testSelects := map[string]map[string]bool{} // name → test package names selecting it
	asserted := map[[3]string]string{}          // path, type, method → interface
	for _, f := range files {
		testPkg := strings.TrimSuffix(f.ast.Name.Name, "_test")
		qualifiers := importedNames(f.ast)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && qualifiers[id.Name] {
					return true
				}
				if f.test {
					mark(testSelects, sel.Sel.Name, testPkg)
				} else {
					mark(selects, sel.Sel.Name, f.dir)
				}
			}
			return true
		})
		if f.test {
			continue
		}
		imports := importNames(f.ast, pkgs)
		own := "repro/" + f.dir
		for _, d := range f.ast.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.VAR {
				continue
			}
			for _, s := range g.Specs {
				v := s.(*ast.ValueSpec)
				if len(v.Names) != 1 || v.Names[0].Name != "_" || v.Type == nil || len(v.Values) != 1 {
					continue
				}
				iface := typeName(v.Type, own, imports)
				name := path.Base(iface[0]) + "." + iface[1]
				names, ok := interfaceMethods(iface, files, pkgs)
				if !ok {
					problems = append(problems, fmt.Sprintf("%s: the method set of %s is unknown to the lister: add it to stdInterfaces", f.dir, name))
					continue
				}
				typ := typeName(assertedType(v.Values[0]), own, imports)
				for _, m := range names {
					asserted[[3]string{typ[0], typ[1], m}] = name
				}
			}
		}
	}
	for p, pkg := range pkgs {
		for typ, decls := range pkg.methods {
			if _, ok := pkg.exported[typ].(*ast.TypeSpec); !ok {
				continue
			}
			for _, d := range decls {
				name := d.Name.Name
				if !d.Name.IsExported() {
					continue
				}
				m := &apiMethod{dir: pkg.dir, key: pkg.name + "." + typ + "." + name,
					callers: map[string]bool{}, asserted: asserted[[3]string{p, typ, name}], tested: testSelects[name]}
				for dir := range selects[name] {
					if dir == pkg.dir {
						m.own = true
					} else {
						m.callers[strings.TrimPrefix(dir, "internal/")] = true
					}
				}
				methods = append(methods, m)
			}
		}
	}
	sort.Slice(methods, func(i, j int) bool { return methods[i].key < methods[j].key })
	sort.Strings(problems)
	return methods, problems
}

// typeName resolves a type expression to its import path and name: a
// name of the file's own package, or pkg.Name of an imported lister
// package. Any other qualified name keeps its package name in place of a
// path.
func typeName(e ast.Expr, own string, imports map[string]string) [2]string {
	switch e := e.(type) {
	case *ast.Ident:
		return [2]string{own, e.Name}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if p, ok := imports[id.Name]; ok {
				return [2]string{p, e.Sel.Name}
			}
			return [2]string{id.Name, e.Sel.Name}
		}
	}
	return [2]string{}
}

// assertedType is the type of an assertion's value: T{}, &T{}, (*T)(nil),
// T(nil).
func assertedType(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.CompositeLit:
			e = v.Type
		case *ast.CallExpr:
			e = v.Fun
		default:
			return e
		}
	}
}

// interfaceMethods is the method set of an interface, its embedded
// interfaces' included: a lister package's, read from its declaration, or
// one of stdInterfaces.
func interfaceMethods(iface [2]string, files []goFile, pkgs map[string]*apiPackage) ([]string, bool) {
	pkg := pkgs[iface[0]]
	if pkg == nil {
		m, ok := stdInterfaces[iface[0]+"."+iface[1]]
		return m, ok
	}
	ts, ok := pkg.decls[iface[1]].(*ast.TypeSpec)
	if !ok {
		return nil, false
	}
	var imports map[string]string
	for _, f := range files {
		if f.dir == pkg.dir && !f.test && within(f.ast, ts) {
			imports = importNames(f.ast, pkgs)
		}
	}
	it, ok := ts.Type.(*ast.InterfaceType)
	if !ok {
		return interfaceMethods(typeName(ts.Type, iface[0], imports), files, pkgs)
	}
	var names []string
	for _, fld := range it.Methods.List {
		for _, n := range fld.Names {
			names = append(names, n.Name)
		}
		if len(fld.Names) > 0 {
			continue
		}
		more, ok := interfaceMethods(typeName(fld.Type, iface[0], imports), files, pkgs)
		if !ok {
			return nil, false
		}
		names = append(names, more...)
	}
	return names, true
}

// checkMethods holds every method of the inventory to a program that
// calls it, an interface assertion, or an allowlist line pkg.Type.Method
// with a reason; a `test seam:` line names packages whose tests call it.
// Lines naming a member of a config type (knobs, pkg.Type) that is not
// one of its methods are the knob pass's. It returns one inventory line
// per package and one line per problem.
func checkMethods(methods []*apiMethod, allowed map[string]allowLine, homes map[string]string, knobs map[string]bool) (report, problems []string) {
	byKey := map[string]*apiMethod{}
	type inventory struct{ called, asserted, listed []string }
	byDir := map[string]*inventory{}
	var dirs []string
	called, kept := 0, 0
	for _, m := range methods {
		byKey[m.key] = m
		inv := byDir[m.dir]
		if inv == nil {
			inv = &inventory{}
			byDir[m.dir] = inv
			dirs = append(dirs, m.dir)
		}
		short := m.key[strings.Index(m.key, ".")+1:]
		l, listed := allowed[m.key]
		switch {
		case len(m.callers) > 0:
			called++
			inv.called = append(inv.called, short)
		case m.asserted != "":
			kept++
			inv.asserted = append(inv.asserted, short+" ("+m.asserted+")")
		case listed:
			inv.listed = append(inv.listed, short+" — "+l.reason)
		case m.own:
			problems = append(problems, m.key+" is called only inside "+m.dir+": unexport it")
		case len(m.tested) > 0:
			problems = append(problems, m.key+" is called only by tests: delete it with them, or allowlist it as a test seam")
		default:
			problems = append(problems, m.key+" has no caller: delete it")
		}
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		inv := byDir[d]
		report = append(report, fmt.Sprintf("%s methods: called by a program %v; kept by an interface assertion %v; allowlisted %v", d, inv.called, inv.asserted, inv.listed))
	}
	report = append(report, fmt.Sprintf("%d exported methods, %d called by a program, %d kept by an interface assertion", len(methods), called, kept))

	lines := make([]allowLine, 0, len(allowed))
	for _, l := range allowed {
		if l.field != "" && (byKey[l.key()] != nil || !knobs[l.pkg+"."+l.name]) {
			lines = append(lines, l)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].line < lines[j].line })
	for _, l := range lines {
		at := fmt.Sprintf("%s:%d: %s", allowlistFile, l.line, l.key())
		m := byKey[l.key()]
		switch {
		case m == nil:
			problems = append(problems, at+" does not exist: drop the line")
			continue
		case len(m.callers) > 0:
			problems = append(problems, at+" is called by a program now: drop the line")
			continue
		case m.asserted != "":
			problems = append(problems, at+" is kept by an assertion of "+m.asserted+": drop the line")
			continue
		}
		if s := reasonForms[0].FindStringSubmatch(l.reason); s != nil {
			for _, user := range strings.Split(s[1], ", ") {
				if !m.tested[user] {
					problems = append(problems, fmt.Sprintf("%s: no test of package %s calls it", at, user))
				}
			}
		}
		if s := reasonForms[1].FindStringSubmatch(l.reason); s != nil && homes[s[1]] != s[2] {
			problems = append(problems, fmt.Sprintf("%s: %s is not %s's home test in EXPERIMENTS.md", at, s[2], s[1]))
		}
	}
	return report, problems
}

// TestExportedNamesHaveReaders holds internal/'s surface to what
// programs use. Every top-level exported func, type, var and const in the
// non-test files of an internal/ package that some non-test file imports
// must be read — written as pkg.Name in a non-test file of another
// package (bench/, cmd/ and examples/ included), or named by the exported
// signature, exported field types or exported methods of a read name — or
// be listed in api_allowlist.txt with one of three reasons. Every
// package-private top-level name in a non-test file of an internal/
// package must be named by a non-test file of its package beyond its own
// declaration, or be listed as pkg.name with the reason `test seam: pkg`.
// Every exported field of a config type (knobTypes) must be set by a
// non-test file of another package, or be listed as pkg.Type.Field with
// a reason (checkKnobs). A line whose name is read, set or gone, or that
// gives no valid reason, fails too. Run with -v (`make api`) for the
// per-package and per-config inventory.
func TestExportedNamesHaveReaders(t *testing.T) {
	text, err := os.ReadFile(allowlistFile)
	if err != nil {
		t.Fatal(err)
	}
	allowed, problems := parseAllowlist(string(text))
	for _, p := range problems {
		t.Error(p)
	}
	x := loadAPI(t, allowed)

	paths := make([]string, 0, len(x.pkgs))
	for p := range x.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	byName := map[string]string{} // package name → import path
	total, unread := 0, 0
	for _, p := range paths {
		pkg := x.pkgs[p]
		byName[pkg.name] = p
		names := make([]string, 0, len(pkg.exported))
		for n := range pkg.exported {
			names = append(names, n)
		}
		sort.Strings(names)
		var read, kept, own, tested, listed []string
		for _, n := range names {
			total++
			key := pkg.name + "." + n
			if x.read[p][n] {
				read = append(read, n)
				continue
			}
			unread++
			if _, ok := allowed[key]; ok {
				listed = append(listed, n)
				continue
			}
			switch {
			case x.named[p][n]:
				kept = append(kept, n)
			case x.ownUse[p][n]:
				own = append(own, n)
				t.Errorf("%s is used only inside %s: unexport it", key, pkg.dir)
			case len(x.testUse[p][n]) > 0:
				tested = append(tested, n)
				t.Errorf("%s is read only by tests: delete it with them, or allowlist it as a test seam", key)
			default:
				t.Errorf("%s has no reader: delete it", key)
			}
		}
		t.Logf("%s: read %v; named by an allowlisted signature %v; own-package only %v; test only %v; allowlisted %v",
			pkg.dir, read, kept, own, tested, listed)
	}
	t.Logf("%d exported names in %d packages, %d with no reader outside their package, %d allowlist lines", total, len(paths), unread, len(allowed))

	keys := make([]string, 0, len(x.private))
	for key := range x.private {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var seams []string
	for _, key := range keys {
		p := x.private[key]
		_, listed := allowed[key]
		switch {
		case p.used:
		case listed:
			seams = append(seams, key)
		case p.tested:
			t.Errorf("%s: %s is named only by tests: delete it with them, or allowlist it as a test seam", p.pos, key)
		default:
			t.Errorf("%s: %s is named nowhere: delete it", p.pos, key)
		}
	}
	t.Logf("%d package-private names, test seams %v", len(keys), seams)

	homes := map[string]string{} // claim ID → its home test
	for _, r := range claimRows(t) {
		if m := function.FindStringSubmatch(r.home); m != nil {
			homes[r.id] = m[2]
		}
	}
	for key, l := range allowed {
		if l.field != "" {
			continue
		}
		if !ast.IsExported(l.name) {
			switch p := x.private[key]; {
			case p == nil:
				t.Errorf("%s:%d: %s does not exist: drop the line", allowlistFile, l.line, key)
			case p.used:
				t.Errorf("%s:%d: %s is named by a program now: drop the line", allowlistFile, l.line, key)
			case !p.tested || l.reason != "test seam: "+l.pkg:
				t.Errorf("%s:%d: %s: want the reason `test seam: %s`, from a test of its package that uses it", allowlistFile, l.line, key, l.pkg)
			}
			continue
		}
		p := byName[l.pkg]
		switch {
		case p == "" || x.pkgs[p].exported[l.name] == nil:
			t.Errorf("%s:%d: %s does not exist: drop the line", allowlistFile, l.line, key)
			continue
		case x.read[p][l.name]:
			t.Errorf("%s:%d: %s is read by a program now: drop the line", allowlistFile, l.line, key)
			continue
		}
		for i, re := range reasonForms {
			m := re.FindStringSubmatch(l.reason)
			switch {
			case m == nil:
			case i == 0:
				for _, user := range strings.Split(m[1], ", ") {
					if !x.testUse[p][l.name][user] {
						t.Errorf("%s:%d: %s: no test of package %s uses it", allowlistFile, l.line, key, user)
					}
				}
			case i == 1 && homes[m[1]] != m[2]:
				t.Errorf("%s:%d: %s: %s is not %s's home test in EXPERIMENTS.md", allowlistFile, l.line, key, m[2], m[1])
			}
		}
	}

	knobs := knobTypes(x.files, x.pkgs)
	report, problems := checkKnobs(knobs, allowed, homes)
	for _, r := range report {
		t.Log(r)
	}
	for _, p := range problems {
		t.Error(p)
	}

	isKnob := map[string]bool{}
	for _, k := range knobs {
		isKnob[k.key] = true
	}
	methods, problems := apiMethods(x.files, x.pkgs)
	report, more := checkMethods(methods, allowed, homes, isKnob)
	for _, r := range report {
		t.Log(r)
	}
	for _, p := range append(problems, more...) {
		t.Error(p)
	}
}

// TestKnobPass runs the knob pass on a small tree: a config type whose
// fields a program sets by a literal key, by a key in a literal whose type
// is elided, by assignment, and by a literal of an alias of the type in
// another package; one field only a test sets; one only its own package
// sets. It checks what the pass flags and which allowlist lines it
// rejects.
func TestKnobPass(t *testing.T) {
	src := map[string]string{
		"internal/foo/foo.go": `package foo
type Config struct {
	Prog, Elided, Assigned, Aliased, TestOnly, Nobody int
	private int
}
type Options struct{ Nobody int }
func (c *Config) fill() { c.Nobody = 1 }`,
		"internal/foo/foo_test.go": `package foo
var _ = Config{TestOnly: 1, private: 2}`,
		"internal/bar/bar.go": `package bar
import "repro/internal/foo"
type Config = foo.Config`,
		"cmd/app/main.go": `package main
import ("repro/internal/bar"; "repro/internal/foo")
func main() {
	c := foo.Config{Prog: 1}
	c.Assigned = 2
	_ = []foo.Config{{Elided: 3}}
	_ = bar.Config{Aliased: 4}
}`,
	}
	fset := token.NewFileSet()
	var files []goFile
	for _, name := range []string{"cmd/app/main.go", "internal/bar/bar.go", "internal/foo/foo.go", "internal/foo/foo_test.go"} {
		f, err := parser.ParseFile(fset, name, src[name], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, goFile{dir: path.Dir(name), test: strings.HasSuffix(name, "_test.go"), ast: f})
	}
	types := knobTypes(files, listerPackages(files))
	if len(types) != 1 || types[0].key != "foo.Config" {
		t.Fatalf("knob types %v, want foo.Config alone", types)
	}
	if set := types[0].set["Aliased"]; !set["cmd/app"] {
		t.Errorf("Aliased set by %v, want cmd/app through the alias bar.Config", set)
	}
	const flagged = " is set by no program"
	for _, tc := range []struct {
		name, allowlist string
		want            []string // the problems, in order, by a part of each
	}{
		{"no lines", "", []string{"foo.Config.TestOnly" + flagged, "foo.Config.Nobody" + flagged}},
		{"both kept", "foo.Config.Nobody\tpaper §2: a knob\nfoo.Config.TestOnly\ttest seam: foo\n", nil},
		{"malformed reason", "foo.Config.Nobody\tbecause\nfoo.Config.TestOnly\ttest seam: foo\n",
			[]string{":1: foo.Config.Nobody: reason is none of", "foo.Config.Nobody" + flagged}},
		{"no such field", "foo.Config.Gone\ttest seam: foo\nfoo.Config.Nobody\tpaper §2: a knob\nfoo.Config.TestOnly\ttest seam: foo\n",
			[]string{":1: foo.Config.Gone does not exist"}},
		{"set by a program", "foo.Config.Nobody\tpaper §2: a knob\nfoo.Config.Prog\tpaper §2: a knob\nfoo.Config.TestOnly\ttest seam: foo\n",
			[]string{":2: foo.Config.Prog is set by a program now"}},
		{"seam no test sets", "foo.Config.Nobody\ttest seam: foo\nfoo.Config.TestOnly\ttest seam: foo\n",
			[]string{":1: foo.Config.Nobody: no test of package foo sets it"}},
	} {
		allowed, problems := parseAllowlist(tc.allowlist)
		_, more := checkKnobs(types, allowed, nil)
		problems = append(problems, more...)
		ok := len(problems) == len(tc.want)
		for i := 0; ok && i < len(problems); i++ {
			ok = strings.Contains(problems[i], tc.want[i])
		}
		if !ok {
			t.Errorf("%s: problems\n\t%s\nwant\n\t%s", tc.name, strings.Join(problems, "\n\t"), strings.Join(tc.want, "\n\t"))
		}
	}
}

// TestMethodPass runs the method pass on a small tree: a method another
// package calls, methods kept by assertions of the package's own and of a
// standard interface, one only its own package calls, one only a test
// calls, one nobody calls, one whose name only a package-qualified
// function shares (strings.Contains), and methods of an unexported type,
// which the pass skips. It checks what the pass flags and which allowlist lines it
// rejects.
func TestMethodPass(t *testing.T) {
	src := map[string]string{
		"internal/foo/foo.go": `package foo
import ("fmt"; "io")
type Store interface{ Get() int }
type T struct{}
type Config struct{ Field int }
type hidden struct{}
var _ Store = (*T)(nil)
var _ fmt.Stringer = T{}
var _ io.Closer = (*T)(nil)
func (t *T) Called() {}
func (t *T) Contains() {}
func (t *T) Get() int { t.Own(); return 0 }
func (T) String() string { return "" }
func (t *T) Own() {}
func (t *T) TestOnly() {}
func (t *T) Nobody() {}
func (t *T) unexported() {}
func (hidden) Skipped() {}`,
		"internal/foo/foo_test.go": `package foo
func use(t *T) { t.TestOnly() }`,
		"cmd/app/main.go": `package main
import ("strings"; "repro/internal/foo")
func main() { var t foo.T; t.Called(); _ = strings.Contains("a", "b") }`,
	}
	fset := token.NewFileSet()
	var files []goFile
	for _, name := range []string{"cmd/app/main.go", "internal/foo/foo.go", "internal/foo/foo_test.go"} {
		f, err := parser.ParseFile(fset, name, src[name], parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, goFile{dir: path.Dir(name), test: strings.HasSuffix(name, "_test.go"), ast: f})
	}
	methods, problems := apiMethods(files, listerPackages(files))
	if want := "method set of io.Closer is unknown"; len(problems) != 1 || !strings.Contains(problems[0], want) {
		t.Errorf("assertion problems %v, want one naming %q", problems, want)
	}
	var keys []string
	for _, m := range methods {
		keys = append(keys, m.key)
	}
	if got, want := strings.Join(keys, " "), "foo.T.Called foo.T.Contains foo.T.Get foo.T.Nobody foo.T.Own foo.T.String foo.T.TestOnly"; got != want {
		t.Fatalf("methods %s, want %s", got, want)
	}
	report, _ := checkMethods(methods, nil, nil, nil)
	if want := "internal/foo methods: called by a program [T.Called]; kept by an interface assertion [T.Get (foo.Store) T.String (fmt.Stringer)]; allowlisted []"; report[0] != want {
		t.Errorf("inventory %q, want %q", report[0], want)
	}

	homes := map[string]string{"E1": "TestE1Home"}
	knobs := map[string]bool{"foo.Config": true}
	const kept = "foo.T.Contains\tpaper §2: a method\nfoo.T.Own\tpaper §2: a method\nfoo.T.TestOnly\ttest seam: foo\n"
	for _, tc := range []struct {
		name, allowlist string
		want            []string // the problems, in order, by a part of each
	}{
		{"no lines", "", []string{
			"foo.T.Contains has no caller: delete it",
			"foo.T.Nobody has no caller: delete it",
			"foo.T.Own is called only inside internal/foo: unexport it",
			"foo.T.TestOnly is called only by tests",
		}},
		{"all kept", "foo.T.Nobody\tclaim E1: TestE1Home\n" + kept, nil},
		{"malformed reason", "foo.T.Nobody\tbecause\n" + kept,
			[]string{":1: foo.T.Nobody: reason is none of", "foo.T.Nobody has no caller"}},
		{"called by a program", "foo.T.Nobody\tpaper §2: a method\nfoo.T.Called\tpaper §2: a method\n" + kept,
			[]string{":2: foo.T.Called is called by a program now"}},
		{"kept by an assertion", "foo.T.Nobody\tpaper §2: a method\nfoo.T.Get\tpaper §2: a method\n" + kept,
			[]string{":2: foo.T.Get is kept by an assertion of foo.Store"}},
		{"no such method", "foo.T.Nobody\tpaper §2: a method\nfoo.T.Gone\tpaper §2: a method\n" + kept,
			[]string{":2: foo.T.Gone does not exist"}},
		{"seam no test calls", "foo.T.Nobody\ttest seam: foo\n" + kept,
			[]string{":1: foo.T.Nobody: no test of package foo calls it"}},
		{"claim not its home", "foo.T.Nobody\tclaim E1: TestOther\n" + kept,
			[]string{":1: foo.T.Nobody: TestOther is not E1's home test"}},
		{"knob lines are the knob pass's", "foo.T.Nobody\tpaper §2: a method\nfoo.Config.Field\tpaper §2: a knob\n" + kept, nil},
	} {
		allowed, problems := parseAllowlist(tc.allowlist)
		_, more := checkMethods(methods, allowed, homes, knobs)
		problems = append(problems, more...)
		ok := len(problems) == len(tc.want)
		for i := 0; ok && i < len(problems); i++ {
			ok = strings.Contains(problems[i], tc.want[i])
		}
		if !ok {
			t.Errorf("%s: problems\n\t%s\nwant\n\t%s", tc.name, strings.Join(problems, "\n\t"), strings.Join(tc.want, "\n\t"))
		}
	}
}
