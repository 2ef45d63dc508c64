package parser

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/vec"
)

func TestChannelsL1(t *testing.T) {
	prog, err := ParseProgram("L1", l1Src)
	if err != nil {
		t.Fatal(err)
	}
	vars, deps, err := prog.Channels()
	if err != nil {
		t.Fatal(err)
	}
	type ch struct{ v, d string }
	got := map[ch]bool{}
	for i := range vars {
		got[ch{vars[i], deps[i].Key()}] = true
	}
	want := []ch{{"A", "0,1"}, {"A", "1,1"}, {"B", "1,0"}}
	if len(got) != len(want) {
		t.Fatalf("channels = %v %v", vars, deps)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing channel %+v", w)
		}
	}
}

func TestChannelsSharedDependenceVector(t *testing.T) {
	// U and V both carry (1,0): two channels with the same vector.
	src := `
for i = 0 to 3
for j = 0 to 3
{
  U[i+1, j] = U[i, j] + V[i, j]
  V[i+1, j] = V[i, j] * 2
}
`
	prog, err := ParseProgram("shared", src)
	if err != nil {
		t.Fatal(err)
	}
	vars, deps, err := prog.Channels()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || !deps[0].Equal(vec.NewInt(1, 0)) || !deps[1].Equal(vec.NewInt(1, 0)) {
		t.Fatalf("deps = %v", deps)
	}
	if vars[0] == vars[1] {
		t.Fatalf("vars = %v", vars)
	}
}

func TestIntraIterationReadAfterWrite(t *testing.T) {
	// T is produced and consumed within the same iteration (d = 0).
	src := `
for i = 0 to 5
{
  T[i] = x[i] * 2
  S[i+1] = S[i] + T[i]
}
`
	prog, err := ParseProgram("intra", src)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.BuildKernel(vec.NewInt(1), 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kernels.RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-compute: S[i+1] = S[i] + 2*x[i], S entering at i=0 is the
	// boundary element S[0] (input), x is an external input.
	st, _ := k.Structure()
	s := InputValue(7, "S", vec.NewInt(0))
	for i := int64(0); i <= 5; i++ {
		s += 2 * InputValue(7, "x", vec.NewInt(i))
		got := res.Out[vec.NewInt(i).Key()][0]
		if math.Abs(got-s) > 1e-12 {
			t.Fatalf("S after i=%d: got %v, want %v", i, got, s)
		}
	}
	_ = st
}

func TestIntraIterationReadBeforeWriteRejected(t *testing.T) {
	src := `
for i = 0 to 5
{
  S[i+1] = S[i] + T[i]
  T[i] = x[i] * 2
}
`
	prog, err := ParseProgram("bad", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.BuildKernel(vec.NewInt(1), 1); err == nil {
		t.Fatal("read-before-write accepted")
	}
}

func TestDoubleWriterRejected(t *testing.T) {
	src := `
for i = 0 to 5
{
  A[i+1] = A[i]
  A[i+2] = A[i]
}
`
	prog, err := ParseProgram("dw", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.BuildKernel(vec.NewInt(1), 1); err == nil {
		t.Fatal("double writer accepted")
	}
}

func TestLexNegativeReadRejected(t *testing.T) {
	src := `
for i = 0 to 5
for j = 0 to 5
{
  A[i, j+1] = A[i+1, j] + A[i, j]
}
`
	// writer A=(0,1); read A(1,0) gives d = (-1,1): lexicographically
	// negative — a use of a value produced by a later iteration.
	prog, err := ParseProgram("neg", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.BuildKernel(vec.NewInt(1, 1), 1); err == nil {
		t.Fatal("lexicographically negative dependence accepted")
	}
}

func TestNoCarriedDepsRejected(t *testing.T) {
	prog, err := ParseProgram("pure", "for i = 0 to 3\n{\n A[i] = x[i] * 2\n}")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.BuildKernel(vec.NewInt(1), 1); err == nil {
		t.Fatal("dependence-free program accepted")
	}
}

func TestInterpreterArithmetic(t *testing.T) {
	// Check precedence and unary minus: y[i+1] = -y[i] * 2 + 3 - 1 must be
	// evaluated as ((-y[i]) * 2) + 3 - 1.
	src := "for i = 0 to 4\n{\n y[i+1] = -y[i] * 2 + 3 - 1\n}"
	prog, err := ParseProgram("arith", src)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.BuildKernel(vec.NewInt(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kernels.RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	y := InputValue(3, "y", vec.NewInt(0))
	for i := int64(0); i <= 4; i++ {
		y = -y*2 + 3 - 1
		if got := res.Out[vec.NewInt(i).Key()][0]; math.Abs(got-y) > 1e-12 {
			t.Fatalf("y after i=%d: got %v, want %v", i, got, y)
		}
	}
}

func TestDivisionByZeroIsTotal(t *testing.T) {
	src := "for i = 0 to 2\n{\n y[i+1] = y[i] / 0 + 1\n}"
	prog, err := ParseProgram("div0", src)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.BuildKernel(vec.NewInt(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kernels.RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i <= 2; i++ {
		if got := res.Out[vec.NewInt(i).Key()][0]; got != 1 {
			t.Fatalf("y[%d] = %v, want 1 (x/0 defined as 0)", i, got)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a := InputValue(1, "x", vec.NewInt(3))
	b := InputValue(2, "x", vec.NewInt(3))
	if a == b {
		t.Fatal("different seeds produced identical inputs")
	}
	if InputValue(1, "x", vec.NewInt(3)) != a {
		t.Fatal("inputValue not deterministic")
	}
	if v := ScalarValue(5, 2, "alpha"); v < -1 || v >= 1 {
		t.Fatalf("scalarValue out of range: %v", v)
	}
}

func TestNaturalFormMatVecL4(t *testing.T) {
	// The paper's loop L4 as written — no pipelining rewrite needed for
	// the read-only arrays A[i,j] and x[j]:
	const m = 6
	src := `
for i = 1 to 6
for j = 1 to 6
{
  y[i, j] = y[i, j-1] + A[i, j] * x[j]
}
`
	prog, err := ParseProgram("L4", src)
	if err != nil {
		t.Fatal(err)
	}
	vars, deps, err := prog.Channels()
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 1 || vars[0] != "y" || !deps[0].Equal(vec.NewInt(0, 1)) {
		t.Fatalf("channels = %v %v", vars, deps)
	}
	const seed = 31
	k, err := prog.BuildKernel(vec.NewInt(1, 1), seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kernels.RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-compute y[i] = y0 + Σ_j A(i,j)·x(j) with the same inputs.
	for i := int64(1); i <= m; i++ {
		y := InputValue(seed, "y", vec.NewInt(i, 0)) // boundary element at j=0
		for j := int64(1); j <= m; j++ {
			a := InputValue(seed, "A", vec.NewInt(i, j))
			x := InputValue(seed, "x", vec.NewInt(j))
			y += a * x
			got := res.Out[vec.NewInt(i, j).Key()][0]
			if math.Abs(got-y) > 1e-12 {
				t.Fatalf("y(%d,%d) = %v, want %v", i, j, got, y)
			}
		}
	}
}

func TestNaturalFormConvolution(t *testing.T) {
	// Convolution in source form: w[j] and x[i-j] are flexible input
	// reads (rank 1, non-uniform affine subscript).
	src := `
for i = 0 to 9
for j = 0 to 3
{
  y[i, j+1] = y[i, j] + w[j] * x[i-j]
}
`
	prog, err := ParseProgram("conv", src)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 41
	k, err := prog.BuildKernel(vec.NewInt(1, 1), seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kernels.RunSequential(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i <= 9; i++ {
		y := InputValue(seed, "y", vec.NewInt(i, 0))
		for j := int64(0); j <= 3; j++ {
			y += InputValue(seed, "w", vec.NewInt(j)) * InputValue(seed, "x", vec.NewInt(i-j))
			got := res.Out[vec.NewInt(i, j).Key()][0]
			if math.Abs(got-y) > 1e-12 {
				t.Fatalf("y(%d,%d) = %v, want %v", i, j, got, y)
			}
		}
	}
}

func TestExprString(t *testing.T) {
	prog, err := ParseProgram("es", "for i = 0 to 3\n{\n y[i+1] = -y[i] * 2 + c\n}")
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Stmts[0].Expr.String()
	if s != "((-y[i1] * 2) + c)" {
		t.Fatalf("Expr.String = %q", s)
	}
}
