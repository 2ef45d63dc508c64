package parser

import (
	"fmt"
	"strings"

	"repro/internal/loop"
	"repro/internal/vec"
)

// Expr is a parsed right-hand-side expression tree.
type Expr interface {
	// String renders the expression in source-like form.
	String() string
}

// NumLit is an integer literal.
type NumLit struct{ Val int64 }

func (e *NumLit) String() string { return fmt.Sprintf("%d", e.Val) }

// ScalarRef is a free scalar identifier (a loop-invariant constant such as
// the paper's C).
type ScalarRef struct{ Name string }

func (e *ScalarRef) String() string { return e.Name }

// AccessRef is an array access Var[sub_1, …, sub_r] with affine
// subscripts. Accesses of *computed* (written) variables must be uniform —
// rank equal to the nest depth with subscript k of the form I_k + c — and
// then Offset holds the constant part. Reads of pure-input (never-written)
// arrays may use any affine subscripts of any rank, e.g. the coefficient
// accesses A[i,j], w[j], or x[i−j] of the paper's source loops.
type AccessRef struct {
	Var string
	// Subs are the parsed affine subscript expressions.
	Subs []loop.Affine
	// Uniform reports whether the access has the I_k + c shape; Offset is
	// only meaningful when it does.
	Uniform bool
	Offset  vec.Int
}

func (e *AccessRef) String() string {
	parts := make([]string, len(e.Subs))
	if e.Uniform {
		for k, o := range e.Offset {
			switch {
			case o == 0:
				parts[k] = fmt.Sprintf("i%d", k+1)
			case o > 0:
				parts[k] = fmt.Sprintf("i%d+%d", k+1, o)
			default:
				parts[k] = fmt.Sprintf("i%d%d", k+1, o)
			}
		}
	} else {
		for k, a := range e.Subs {
			parts[k] = a.String()
		}
	}
	return fmt.Sprintf("%s[%s]", e.Var, strings.Join(parts, ","))
}

// Unary is a unary minus.
type Unary struct{ X Expr }

func (e *Unary) String() string { return "-" + e.X.String() }

// Binary is a binary arithmetic operation; Op is one of + - * /.
type Binary struct {
	Op   byte
	L, R Expr
}

func (e *Binary) String() string {
	return fmt.Sprintf("(%s %c %s)", e.L.String(), e.Op, e.R.String())
}

// StmtNode is one parsed statement with its full expression tree.
type StmtNode struct {
	Label string
	Write loop.Access
	Expr  Expr
}

// Program is a fully parsed loop: the structural nest plus the statement
// expression trees (the nest's loop.Stmt entries are derived from these).
type Program struct {
	Nest  *loop.Nest
	Stmts []StmtNode
}

// countOps counts arithmetic operators in an expression.
func countOps(e Expr) int {
	switch v := e.(type) {
	case *Binary:
		return 1 + countOps(v.L) + countOps(v.R)
	case *Unary:
		return countOps(v.X)
	default:
		return 0
	}
}

// collectReads appends the uniform array accesses of an expression (only
// uniform accesses can carry dependences; non-uniform reads are pure
// inputs).
func collectReads(e Expr, out *[]loop.Access) {
	switch v := e.(type) {
	case *AccessRef:
		if v.Uniform {
			*out = append(*out, loop.Access{Var: v.Var, Offset: v.Offset})
		}
	case *Unary:
		collectReads(v.X, out)
	case *Binary:
		collectReads(v.L, out)
		collectReads(v.R, out)
	}
}

// collectAccessRefs appends every AccessRef node of an expression.
func collectAccessRefs(e Expr, out *[]*AccessRef) {
	switch v := e.(type) {
	case *AccessRef:
		*out = append(*out, v)
	case *Unary:
		collectAccessRefs(v.X, out)
	case *Binary:
		collectAccessRefs(v.L, out)
		collectAccessRefs(v.R, out)
	}
}
