// Package snapshotcomplete implements the emlint analyzer guarding the
// checkpoint/resume invariant (DESIGN.md par.6): every struct that
// offers a snapshot pair — Snapshot/Restore, State/SetState or
// PolicyState/SetPolicyState — must reference each of its fields in
// BOTH methods, directly or through same-package helpers they call. A field added to the machine, a
// cache, the affinity table, the LRU stack or the RNG without extending
// the pair would otherwise resume from an EMCKPT2 checkpoint with
// silently reset state; this analyzer turns that into a build-time
// diagnostic. Configuration and derived fields that are legitimately
// rebuilt rather than serialised are exempted with //emlint:nosnapshot.
package snapshotcomplete

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer verifies snapshot pairs cover every field.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotcomplete",
	Doc: `verify Snapshot/Restore (State/SetState, PolicyState/SetPolicyState) pairs touch every field

For each struct type with both halves of a snapshot pair, every field
must be referenced in the snapshot method AND the restore method,
directly or via same-package functions they call. Exempt config,
derived or scratch fields with //emlint:nosnapshot <reason>.`,
	Run: run,
}

// pairNames maps a snapshot-side method name to its restore-side name.
var pairNames = map[string]string{
	"Snapshot":    "Restore",
	"State":       "SetState",
	"PolicyState": "SetPolicyState",
}

func run(pass *analysis.Pass) error {
	// Index this package's function declarations by their object, for
	// static call resolution, and collect the methods by receiver type.
	decls := make(map[*types.Func]*ast.FuncDecl)
	methods := make(map[*types.Named]map[string]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if named := receiverNamed(fn); named != nil {
				if methods[named] == nil {
					methods[named] = make(map[string]*ast.FuncDecl)
				}
				methods[named][fd.Name.Name] = fd
			}
		}
	}

	for named, ms := range methods {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for snapName, restName := range pairNames {
			snap, restore := ms[snapName], ms[restName]
			if snap == nil || restore == nil {
				continue
			}
			if pass.InTestFile(snap.Pos()) {
				continue
			}
			checkPair(pass, named, st, snapName, snap, restName, restore, decls)
		}
	}
	return nil
}

// receiverNamed returns the named type fn is a method on, or nil.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// checkPair reports each field of st not covered by both methods.
func checkPair(pass *analysis.Pass, named *types.Named, st *types.Struct,
	snapName string, snap *ast.FuncDecl, restName string, restore *ast.FuncDecl,
	decls map[*types.Func]*ast.FuncDecl) {

	fields := make(map[*types.Var]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}

	inSnap := fieldsReferenced(pass, snap, fields, decls)
	inRestore := fieldsReferenced(pass, restore, fields, decls)

	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		missSnap, missRestore := !inSnap[f], !inRestore[f]
		if !missSnap && !missRestore {
			continue
		}
		fieldNode := fieldDecl(pass, named, f)
		if fieldNode != nil && analysis.CommentedField(fieldNode, analysis.DirNoSnapshot) {
			continue
		}
		var missing string
		switch {
		case missSnap && missRestore:
			missing = snapName + " or " + restName
		case missSnap:
			missing = snapName
		default:
			missing = restName
		}
		pos := f.Pos()
		if fieldNode != nil {
			pos = fieldNode.Pos()
		}
		pass.Reportf(pos,
			"field %s.%s is not referenced by %s; a checkpoint would silently drop or reset it (serialise it, or annotate //emlint:nosnapshot with a reason)",
			named.Obj().Name(), f.Name(), missing)
	}
}

// fieldsReferenced walks the bodies of root and every same-package
// function statically reachable from it, collecting which of the given
// fields are referenced (read or written) via a selector.
func fieldsReferenced(pass *analysis.Pass, root *ast.FuncDecl,
	fields map[*types.Var]bool, decls map[*types.Func]*ast.FuncDecl) map[*types.Var]bool {

	seen := make(map[*ast.FuncDecl]bool)
	got := make(map[*types.Var]bool)
	queue := []*ast.FuncDecl{root}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if fd == nil || seen[fd] || fd.Body == nil {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if v, ok := sel.Obj().(*types.Var); ok && fields[v] {
						got[v] = true
					}
				}
			case *ast.CallExpr:
				if fn := analysis.FuncOf(pass.TypesInfo, n); fn != nil {
					if callee, ok := decls[fn]; ok && !seen[callee] {
						queue = append(queue, callee)
					}
				}
			}
			return true
		})
	}
	return got
}

// fieldDecl finds the ast.Field declaring v inside named's struct type
// literal, so diagnostics anchor to — and annotations are read from —
// the field's own line.
func fieldDecl(pass *analysis.Pass, named *types.Named, v *types.Var) *ast.Field {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name == nil || pass.TypesInfo.Defs[ts.Name] != named.Obj() {
					continue
				}
				stLit, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range stLit.Fields.List {
					for _, name := range f.Names {
						if pass.TypesInfo.Defs[name] == v {
							return f
						}
					}
				}
			}
		}
	}
	return nil
}
