package bitvec

import (
	"math/rand"
	"testing"
)

func TestSetClearTest(t *testing.T) {
	v := Vec(nil).Resize(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if v.Test(i) {
			t.Fatalf("bit %d set in fresh vec", i)
		}
		v.Set(i)
		if !v.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	v.Reset()
	for _, i := range []int{0, 63, 64, 199} {
		if v.Test(i) {
			t.Fatalf("bit %d still set after Reset", i)
		}
	}
}

func TestResizeReusesStorage(t *testing.T) {
	v := Vec(nil).Resize(1024)
	v.Set(500)
	w := v.Resize(512)
	if &w[0] != &v[0] {
		t.Fatal("Resize reallocated despite sufficient capacity")
	}
	if w.Test(500) {
		t.Fatal("Resize did not clear live bits")
	}
	big := w.Resize(100000)
	if len(big) != Words(100000) {
		t.Fatalf("Resize(100000) length %d, want %d", len(big), Words(100000))
	}
}

func TestCountAndWalksAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300) + 1
		v := Vec(nil).Resize(n)
		ref := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
				ref[i] = true
			}
		}
		wantCount := 0
		for _, b := range ref {
			if b {
				wantCount++
			}
		}
		if got := v.Count(n); got != wantCount {
			t.Fatalf("n=%d: Count=%d want %d", n, got, wantCount)
		}
	}
}
