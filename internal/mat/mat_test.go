package mat

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewDenseZeroInitialized(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims() = %d,%d, want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseDataRoundTrip(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewDenseData(2, 3, data)
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v, want 6", got)
	}
	m.Set(0, 1, 42)
	if data[1] != 42 {
		t.Errorf("backing slice not aliased: data[1] = %v, want 42", data[1])
	}
}

func TestNewDenseDataBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	NewDenseData(2, 3, []float64{1, 2, 3})
}

// TestNewDenseDataBadDimsPanic: shapes whose r*c wraps or whose signs
// cancel must not pass the length check. Each used to be accepted:
// 2^32 x 2^32 wraps to 0 elements and -1 x -1 multiplies to 1.
func TestNewDenseDataBadDimsPanic(t *testing.T) {
	for _, tc := range []struct {
		r, c int
		data []float64
	}{
		{1 << 32, 1 << 32, nil},
		{-1, -1, []float64{1}},
		{-2, 0, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDenseData(%d, %d, %d values) did not panic", tc.r, tc.c, len(tc.data))
				}
			}()
			NewDenseData(tc.r, tc.c, tc.data)
		}()
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	cases := [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", c[0], c[1])
				}
			}()
			m.At(c[0], c[1])
		}()
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I(3)[%d,%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	r, c := mt.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T().Dims() = %d,%d, want 3,2", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Errorf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	got := a.Mul(b)
	want := NewDenseData(2, 2, []float64{19, 22, 43, 50})
	if !got.Equal(want, 0) {
		t.Errorf("Mul =\n%v\nwant\n%v", got, want)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		a := randomDense(rng, n, n)
		if !a.Mul(Identity(n)).Equal(a, 1e-12) {
			t.Fatalf("A*I != A for n=%d", n)
		}
		if !Identity(n).Mul(a).Equal(a, 1e-12) {
			t.Fatalf("I*A != A for n=%d", n)
		}
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 4, 3)
	x := []float64{1, -2, 0.5}
	got := a.MulVec(x)
	bx := NewDenseData(3, 1, append([]float64(nil), x...))
	want := a.Mul(bx)
	for i := range got {
		if !almostEqual(got[i], want.At(i, 0), 1e-12) {
			t.Errorf("MulVec[%d] = %v, want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{4, 3, 2, 1})
	if got, want := a.Add(b), NewDenseData(2, 2, []float64{5, 5, 5, 5}); !got.Equal(want, 0) {
		t.Errorf("Add = %v", got)
	}
	if got, want := a.Sub(a), NewDense(2, 2); !got.Equal(want, 0) {
		t.Errorf("Sub = %v", got)
	}
	if got, want := a.Scale(2), NewDenseData(2, 2, []float64{2, 4, 6, 8}); !got.Equal(want, 0) {
		t.Errorf("Scale = %v", got)
	}
}

func TestRowColSetters(t *testing.T) {
	m := NewDense(2, 3)
	m.SetRow(0, []float64{1, 2, 3})
	m.SetCol(2, []float64{9, 8})
	if m.At(0, 2) != 9 || m.At(1, 2) != 8 || m.At(0, 0) != 1 {
		t.Errorf("unexpected matrix after setters:\n%v", m)
	}
	row := m.Row(0)
	row[0] = 100
	if m.At(0, 0) == 100 {
		t.Error("Row() must copy")
	}
	raw := m.RawRow(1)
	raw[0] = 7
	if m.At(1, 0) != 7 {
		t.Error("RawRow() must alias")
	}
}

func TestSliceAndSubMatrix(t *testing.T) {
	m := NewDenseData(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	s := m.Slice(1, 3, 0, 2)
	want := NewDenseData(2, 2, []float64{4, 5, 7, 8})
	if !s.Equal(want, 0) {
		t.Errorf("Slice = %v, want %v", s, want)
	}
	sub := m.SubMatrix([]int{2, 0}, []int{1})
	if sub.At(0, 0) != 8 || sub.At(1, 0) != 2 {
		t.Errorf("SubMatrix = %v", sub)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
}

func TestIsSymmetric(t *testing.T) {
	sym := NewDenseData(2, 2, []float64{1, 2, 2, 1})
	if !sym.IsSymmetric(0) {
		t.Error("symmetric matrix reported asymmetric")
	}
	asym := NewDenseData(2, 2, []float64{1, 2, 3, 1})
	if asym.IsSymmetric(0.5) {
		t.Error("asymmetric matrix reported symmetric")
	}
	rect := NewDense(2, 3)
	if rect.IsSymmetric(1) {
		t.Error("rectangular matrix cannot be symmetric")
	}
}

func TestNorms(t *testing.T) {
	m := NewDenseData(2, 2, []float64{3, 0, 0, -4})
	if got := m.FrobeniusNorm(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
}
