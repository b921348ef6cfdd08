package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The emlint annotation vocabulary. Annotations are ordinary line
// comments of the form `//emlint:<name> [reason...]` (no space after
// //, like //go: directives). They either declare a contract an
// analyzer checks (guardedby, locked) or record a reviewed exemption
// with its reason (allowpanic, detached).
const (
	// DirAllowPanic marks a reviewed panic in library code: a
	// documented internal-invariant trap rather than input validation.
	DirAllowPanic = "allowpanic"
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
// it. For exemptions (allowpanic, detached) Arg is the reason text; for
// parameterised ones (guardedby, locked) it carries the operand.
type Directive struct {
	Name string
	Arg  string
}

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
