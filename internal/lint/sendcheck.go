package lint

import (
	"go/ast"
	"go/types"

	"aq2pnn/internal/lint/analysis"
)

// SendCheck flags dropped errors on transport operations. A party that
// ignores a failed Send or Recv keeps executing its half of the protocol
// while the peer does not — the two transcripts silently desynchronize and
// every subsequent opened value is garbage (or worse, leaks a share against
// a stale mask). The analyzer covers the transport.Conn methods, the
// package-level transport helpers, and raw net.Conn reads/writes.
//
// Discarding with `_ =` is also flagged: the invariant is that the error is
// *handled*, and a deliberate drop must say why via //lint:allow.
var SendCheck = &analysis.Analyzer{
	Name: "sendcheck",
	Doc: "flags dropped errors on transport send/recv and net.Conn " +
		"reads/writes, which desynchronize the two parties",
	Run: runSendCheck,
}

// sendCheckConnMethods are methods that move protocol bytes when invoked on
// a type named Conn (covers transport.Conn implementations and net.Conn).
var sendCheckConnMethods = map[string]bool{
	"Send": true, "Recv": true, "Write": true, "Read": true,
}

// sendCheckHelpers are the package-level helpers of internal/transport.
var sendCheckHelpers = map[string]bool{
	"SendElems": true, "RecvElems": true,
	"SendBytes": true, "RecvBytes": true, "RecvCapped": true,
	"Exchange": true, "ExchangeOpen": true,
}

func runSendCheck(pass *analysis.Pass) error {
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && sendCheckTarget(pass, call) {
				pass.Reportf(call.Pos(), "transport error dropped: result of %s is unchecked (a failed send/recv desynchronizes the parties)", callName(call))
			}
		case *ast.GoStmt:
			if sendCheckTarget(pass, s.Call) {
				pass.Reportf(s.Call.Pos(), "transport error dropped: %s started with 'go' discards its error", callName(s.Call))
			}
		case *ast.DeferStmt:
			if sendCheckTarget(pass, s.Call) {
				pass.Reportf(s.Call.Pos(), "transport error dropped: deferred %s discards its error", callName(s.Call))
			}
		case *ast.AssignStmt:
			reportBlankedTransportErrors(pass, s)
		}
		return true
	})
	return nil
}

// reportBlankedTransportErrors flags `_ = c.Send(..)` and
// `x, _ := transport.RecvElems(..)` — assignments that bind the error
// result of a transport call to the blank identifier.
func reportBlankedTransportErrors(pass *analysis.Pass, s *ast.AssignStmt) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || !sendCheckTarget(pass, call) {
		return
	}
	// The error is the final result; with a single-result call it is the
	// only LHS, with a multi-result call it is the last LHS.
	last := s.Lhs[len(s.Lhs)-1]
	if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(s.Pos(), "transport error dropped: error result of %s assigned to _", callName(call))
	}
}

// sendCheckTarget reports whether call is a transport operation whose last
// result is an error.
func sendCheckTarget(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if !lastResultIsError(pass, call) {
		return false
	}
	name := sel.Sel.Name
	// Method on a connection value.
	if recv := pass.TypeOf(sel.X); recv != nil && !isPackageRef(pass, sel.X) {
		if sendCheckConnMethods[name] && typeNameIs(recv, "Conn") {
			return true
		}
		return false
	}
	// Package-qualified helper: transport.SendElems(...) etc.
	if sendCheckHelpers[name] || sendCheckConnMethods[name] {
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "transport" {
			return true
		}
	}
	return false
}

// isPackageRef reports whether e is an identifier naming an imported
// package rather than a value.
func isPackageRef(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pass.ObjectOf(id).(*types.PkgName)
	return isPkg
}

// typeNameIs reports whether t (possibly behind a pointer) is a named or
// interface type whose declared name is name.
func typeNameIs(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() == name
	}
	return false
}

func lastResultIsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		if id, ok := f.X.(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return "call"
}
