package perms

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// compose returns the permutation (a ∘ b)(i) = a(b(i)).
func compose(a, b []int) []int {
	out := make([]int, len(a))
	for i := range out {
		out[i] = a[b[i]]
	}
	return out
}

func TestValidate(t *testing.T) {
	if err := Validate([]int{2, 0, 1}); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	if err := Validate([]int{}); err != nil {
		t.Fatalf("empty permutation rejected: %v", err)
	}
	if err := Validate([]int{0, 0}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := Validate([]int{0, 2}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if err := Validate([]int{-1, 0}); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestIdentityInverseCompose(t *testing.T) {
	id := Identity(5)
	for i, v := range id {
		if v != i {
			t.Fatal("Identity wrong")
		}
	}
	pi := []int{2, 0, 3, 1}
	inv := Inverse(pi)
	if !Equal(compose(pi, inv), Identity(4)) {
		t.Fatal("pi ∘ pi⁻¹ ≠ id")
	}
	if !Equal(compose(inv, pi), Identity(4)) {
		t.Fatal("pi⁻¹ ∘ pi ≠ id")
	}
}

func TestEqual(t *testing.T) {
	if Equal([]int{0, 1}, []int{0}) {
		t.Fatal("different lengths equal")
	}
	if Equal([]int{0, 1}, []int{1, 0}) {
		t.Fatal("different values equal")
	}
	if !Equal([]int{1, 0}, []int{1, 0}) {
		t.Fatal("equal values not equal")
	}
}

func TestRandomDerangement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 2; n <= 40; n++ {
		pi := RandomDerangement(n, rng)
		if err := Validate(pi); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, v := range pi {
			if v == i {
				t.Fatalf("n=%d: fixed point %d", n, i)
			}
		}
	}
}

func TestRandomDerangementPanicsBelow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=1 did not panic")
		}
	}()
	RandomDerangement(1, rand.New(rand.NewSource(1)))
}

func TestVectorReversal(t *testing.T) {
	pi := VectorReversal(4)
	want := []int{3, 2, 1, 0}
	if !Equal(pi, want) {
		t.Fatalf("reversal = %v, want %v", pi, want)
	}
	if err := Validate(pi); err != nil {
		t.Fatal(err)
	}
	// Reversal is an involution.
	if !Equal(compose(pi, pi), Identity(4)) {
		t.Fatal("reversal not an involution")
	}
}

func TestTranspose(t *testing.T) {
	// 2x3 matrix: element (i,j) at 3i+j moves to (j,i) at 2j+i.
	pi := Transpose(2, 3)
	if err := Validate(pi); err != nil {
		t.Fatal(err)
	}
	if pi[0*3+1] != 1*2+0 {
		t.Fatalf("element (0,1) moved to %d, want 2", pi[1])
	}
	// Transposing twice (with swapped dims) is the identity.
	back := Transpose(3, 2)
	if !Equal(compose(back, pi), Identity(6)) {
		t.Fatal("transpose ∘ transpose ≠ id")
	}
}

func TestCyclicShift(t *testing.T) {
	pi := CyclicShift(5, 2)
	if pi[4] != 1 || pi[0] != 2 {
		t.Fatalf("shift = %v", pi)
	}
	if !Equal(CyclicShift(5, -3), pi) {
		t.Fatal("negative shift not normalized")
	}
	if !Equal(CyclicShift(5, 7), pi) {
		t.Fatal("large shift not normalized")
	}
}

func TestBPCValidation(t *testing.T) {
	if _, err := NewBPC(2, []int{0}, 0); err == nil {
		t.Fatal("short bit perm accepted")
	}
	if _, err := NewBPC(2, []int{0, 0}, 0); err == nil {
		t.Fatal("non-permutation bits accepted")
	}
	if _, err := NewBPC(2, []int{0, 1}, 4); err == nil {
		t.Fatal("complement above width accepted")
	}
	if _, err := NewBPC(-1, nil, 0); err == nil {
		t.Fatal("negative width accepted")
	}
	if _, err := NewBPC(63, make([]int, 63), 0); err == nil {
		t.Fatal("oversized width accepted")
	}
}

func TestBPCFamiliesArePermutations(t *testing.T) {
	for bits := 1; bits <= 6; bits++ {
		builders := []func(int) (*BPC, error){
			func(b int) (*BPC, error) { return BitReversal(b) },
			func(b int) (*BPC, error) { return PerfectShuffle(b) },
			func(b int) (*BPC, error) { return complementAll(b) },
		}
		for i, mk := range builders {
			bpc, err := mk(bits)
			if err != nil {
				t.Fatalf("builder %d bits %d: %v", i, bits, err)
			}
			if err := Validate(bpc.Permutation()); err != nil {
				t.Fatalf("builder %d bits %d: %v", i, bits, err)
			}
		}
	}
}

func TestHypercubeExchange(t *testing.T) {
	ex, err := HypercubeExchange(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pi := ex.Permutation()
	for i := range pi {
		if pi[i] != i^2 {
			t.Fatalf("π(%d) = %d, want %d", i, pi[i], i^2)
		}
	}
	if _, err := HypercubeExchange(3, 3); err == nil {
		t.Fatal("bit out of range accepted")
	}
	if _, err := HypercubeExchange(3, -1); err == nil {
		t.Fatal("negative bit accepted")
	}
}

// complementAll is the BPC permutation π(i) = ¬i: the identity bit
// permutation with every bit complemented.
func complementAll(bits int) (*BPC, error) {
	return NewBPC(bits, Identity(bits), 1<<uint(bits)-1)
}

// TestComplementAllEqualsReversal: flipping every index bit is vector
// reversal on 2^bits elements.
func TestComplementAllEqualsReversal(t *testing.T) {
	for bits := 1; bits <= 5; bits++ {
		bpc, err := complementAll(bits)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(bpc.Permutation(), VectorReversal(1<<uint(bits))) {
			t.Fatalf("bits=%d: ¬i ≠ reversal", bits)
		}
	}
}

func TestBitReversalInvolution(t *testing.T) {
	br, err := BitReversal(4)
	if err != nil {
		t.Fatal(err)
	}
	pi := br.Permutation()
	if !Equal(compose(pi, pi), Identity(16)) {
		t.Fatal("bit reversal not an involution")
	}
}

func TestPerfectShuffleDoubles(t *testing.T) {
	ps, err := PerfectShuffle(3)
	if err != nil {
		t.Fatal(err)
	}
	pi := ps.Permutation()
	// Left rotation of bits: i = b2b1b0 -> b1b0b2, i.e. π(i) = 2i mod 7 for
	// i < 7 with π(7)=7 on 8 elements.
	for i := 0; i < 7; i++ {
		if pi[i] != (2*i)%7 {
			t.Fatalf("π(%d) = %d, want %d", i, pi[i], (2*i)%7)
		}
	}
	if pi[7] != 7 {
		t.Fatalf("π(7) = %d, want 7", pi[7])
	}
}

func TestMeshShift(t *testing.T) {
	pi, err := MeshShift(2, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (0,0)->(1,0): 0 -> 3; (1,2)->(0,2): 5 -> 2.
	if pi[0] != 3 || pi[5] != 2 {
		t.Fatalf("down shift = %v", pi)
	}
	if err := Validate(pi); err != nil {
		t.Fatal(err)
	}
	// Shifting down then up is the identity.
	up, err := MeshShift(2, 3, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(compose(up, pi), Identity(6)) {
		t.Fatal("down∘up ≠ id")
	}
	if _, err := MeshShift(0, 3, 0, 0); err == nil {
		t.Fatal("empty mesh accepted")
	}
}

func TestBlockPermutation(t *testing.T) {
	// d=2, g=2, σ = swap, identity inner: π = [2,3,0,1].
	pi, err := BlockPermutation(2, 2, []int{1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(pi, []int{2, 3, 0, 1}) {
		t.Fatalf("block perm = %v", pi)
	}
	// With inner reversal in group 0 only.
	pi, err = BlockPermutation(2, 2, []int{1, 0}, [][]int{{1, 0}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(pi, []int{3, 2, 0, 1}) {
		t.Fatalf("block perm with inner = %v", pi)
	}
}

func TestBlockPermutationValidation(t *testing.T) {
	if _, err := BlockPermutation(0, 2, []int{1, 0}, nil); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := BlockPermutation(2, 2, []int{0}, nil); err == nil {
		t.Fatal("short sigma accepted")
	}
	if _, err := BlockPermutation(2, 2, []int{0, 0}, nil); err == nil {
		t.Fatal("non-permutation sigma accepted")
	}
	if _, err := BlockPermutation(2, 2, []int{1, 0}, [][]int{nil}); err == nil {
		t.Fatal("wrong inner count accepted")
	}
	if _, err := BlockPermutation(2, 2, []int{1, 0}, [][]int{{0}, nil}); err == nil {
		t.Fatal("short inner accepted")
	}
	if _, err := BlockPermutation(2, 2, []int{1, 0}, [][]int{{0, 0}, nil}); err == nil {
		t.Fatal("non-permutation inner accepted")
	}
}

func TestGroupRotation(t *testing.T) {
	pi, err := GroupRotation(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(pi, []int{3, 4, 5, 0, 1, 2}) {
		t.Fatalf("group rotation = %v", pi)
	}
}

func TestRandomIsPermutationProperty(t *testing.T) {
	f := func(nSeed uint8, seed int64) bool {
		n := int(nSeed)%64 + 1
		pi := Random(n, rand.New(rand.NewSource(seed)))
		return Validate(pi) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseProperty(t *testing.T) {
	f := func(nSeed uint8, seed int64) bool {
		n := int(nSeed)%64 + 1
		pi := Random(n, rand.New(rand.NewSource(seed)))
		return Equal(compose(pi, Inverse(pi)), Identity(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
