package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The emlint annotation vocabulary. Annotations are ordinary line
// comments of the form `//emlint:<name> [reason...]` (no space after
// //, like //go: directives). They either opt a declaration into a
// check (hotpath) or record a reviewed exemption with its reason
// (ordered, allowpanic, nosnapshot, coldpath).
const (
	// DirHotpath marks a function as steady-state allocation-free: the
	// hotpath analyzer forbids closures, interface conversions,
	// escaping appends, and calls into allocating non-annotated code.
	DirHotpath = "hotpath"
	// DirColdpath marks a function as a known amortised/cold path
	// (table growth, eviction ring doubling): hotpath functions may
	// call it even though it allocates.
	DirColdpath = "coldpath"
	// DirOrdered marks a map-range loop whose escaping result has been
	// reviewed as iteration-order-independent.
	DirOrdered = "ordered"
	// DirAllowPanic marks a reviewed panic in library code: a
	// documented internal-invariant trap rather than input validation.
	DirAllowPanic = "allowpanic"
	// DirNoSnapshot marks a struct field that Snapshot/Restore may
	// legitimately skip: configuration, derived values rebuilt on
	// restore, or scratch space with no cross-call state.
	DirNoSnapshot = "nosnapshot"
	// DirWallclock marks a reviewed wall-clock read in a
	// result-producing package: a use of time.Now/time.Since whose value
	// provably never feeds a simulation result (e.g. seeding client
	// retry jitter, which *must* differ across processes). The reason is
	// mandatory in review, so the annotation documents why the read is
	// outside the determinism boundary.
	DirWallclock = "wallclock"
	// DirGuardedBy marks a struct field as protected by a sibling mutex
	// field: `//emlint:guardedby mu`. The lockguard analyzer requires
	// every function referencing the field to lexically acquire that
	// mutex (Lock/RLock with a paired Unlock) or to be annotated
	// //emlint:locked <mu>.
	DirGuardedBy = "guardedby"
	// DirLocked documents a function's calling convention: the caller
	// already holds the named mutex, so the function may touch
	// guardedby fields without acquiring it itself.
	DirLocked = "locked"
	// DirDetached marks a reviewed goroutine that intentionally runs
	// without a cancellable context (its lifetime is bounded some other
	// way, e.g. by a WaitGroup or an http.Server.Shutdown). The reason
	// is mandatory.
	DirDetached = "detached"
)

const dirPrefix = "//emlint:"

// Directive is one parsed annotation: its name plus everything after
// it. For argumentless directives (hotpath) Arg is the reason text; for
// parameterised ones (guardedby, locked) it carries the
// operand, and Fields splits it on whitespace.
type Directive struct {
	Name string
	Arg  string
}

// Fields returns Arg split on whitespace.
func (d Directive) Fields() []string { return strings.Fields(d.Arg) }

// Directives indexes a package's //emlint: annotations by file and
// line so analyzers can answer "is this node annotated?" without
// re-walking comment lists.
type Directives struct {
	// byLine maps filename → line → directives present on that line.
	byLine map[string]map[int][]Directive
}

// ParseDirectives collects every emlint annotation in files.
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{byLine: make(map[string]map[int][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]Directive)
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], dir)
			}
		}
	}
	return d
}

// parseDirective splits a comment's text into directive name and
// argument tail, if it is an emlint annotation.
func parseDirective(text string) (Directive, bool) {
	if !strings.HasPrefix(text, dirPrefix) {
		return Directive{}, false
	}
	rest := text[len(dirPrefix):]
	name, arg := rest, ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, arg = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Arg: arg}, true
}

// at reports whether directive name sits on the given file line.
func (d *Directives) at(filename string, line int, name string) bool {
	_, ok := d.argAt(filename, line, name)
	return ok
}

// argAt returns the argument of directive name on the given line.
func (d *Directives) argAt(filename string, line int, name string) (string, bool) {
	for _, dir := range d.byLine[filename][line] {
		if dir.Name == name {
			return dir.Arg, true
		}
	}
	return "", false
}

// OnLineOrAbove reports whether the annotation appears on the node's
// own line (a trailing comment) or on the line directly above it — the
// two idiomatic placements for statement- and field-level annotations.
func (d *Directives) OnLineOrAbove(fset *token.FileSet, node ast.Node, name string) bool {
	pos := fset.Position(node.Pos())
	return d.at(pos.Filename, pos.Line, name) || d.at(pos.Filename, pos.Line-1, name)
}

// ArgOnLineOrAbove is OnLineOrAbove returning the directive's argument.
func (d *Directives) ArgOnLineOrAbove(fset *token.FileSet, node ast.Node, name string) (string, bool) {
	pos := fset.Position(node.Pos())
	if arg, ok := d.argAt(pos.Filename, pos.Line, name); ok {
		return arg, true
	}
	return d.argAt(pos.Filename, pos.Line-1, name)
}

// CommentedFunc reports whether a function declaration carries the
// annotation anywhere in its doc comment (the conventional placement:
// the last doc line before func).
func CommentedFunc(decl *ast.FuncDecl, name string) bool {
	return len(FuncArgs(decl, name)) > 0
}

// FuncArgs returns the argument of every annotation named name in the
// function's doc comment, one entry per directive line (a declaration
// may carry several, e.g. one //emlint:locked per held mutex).
func FuncArgs(decl *ast.FuncDecl, name string) []string {
	if decl == nil || decl.Doc == nil {
		return nil
	}
	var args []string
	for _, c := range decl.Doc.List {
		if dir, ok := parseDirective(c.Text); ok && dir.Name == name {
			args = append(args, dir.Arg)
		}
	}
	return args
}

// CommentedField reports whether a struct field carries the annotation
// in its doc comment or trailing line comment.
func CommentedField(field *ast.Field, name string) bool {
	_, ok := FieldArg(field, name)
	return ok
}

// FieldArg returns the argument of the annotation named name in a
// struct field's doc comment or trailing line comment.
func FieldArg(field *ast.Field, name string) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if dir, ok := parseDirective(c.Text); ok && dir.Name == name {
				return dir.Arg, true
			}
		}
	}
	return "", false
}
