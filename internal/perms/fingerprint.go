package perms

// Fingerprint returns a 64-bit content fingerprint of pi, the cache key of
// the plan-memoization layers: two equal permutations always fingerprint
// identically, and distinct permutations collide with probability ~2⁻⁶⁴.
// Because a 64-bit digest cannot be collision-free, caches keyed by it must
// verify equality (Equal) on every hit before trusting the stored plan.
//
// The hash is an FNV-1a walk over the elements (order-sensitive, so
// transpositions change the digest) seeded with the length, followed by a
// 64-bit finalizer (the murmur3 avalanche) so that low-entropy inputs —
// permutations differ only in small integers — still spread over the whole
// output space. It allocates nothing and needs one multiply per element.
func Fingerprint(pi []int) uint64 {
	h := NewHasher(len(pi))
	for _, v := range pi {
		h = h.Add(v)
	}
	return h.Sum()
}

// Hasher is Fingerprint taken one element at a time, for a sequence held in
// another shape than an []int: NewHasher(n), then Add of each of the n
// elements in order, then Sum equals Fingerprint of those n elements.
type Hasher uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewHasher starts the fingerprint of an n-element sequence.
func NewHasher(n int) Hasher {
	return Hasher((fnvOffset64 ^ uint64(n)) * fnvPrime64)
}

// Add mixes the next element into the fingerprint.
func (h Hasher) Add(v int) Hasher {
	return Hasher((uint64(h) ^ uint64(v)) * fnvPrime64)
}

// Sum finalizes the fingerprint. Murmur3's 64-bit avalanche: FNV-1a alone
// mixes the last few elements weakly into the high bits; the avalanche
// makes every input bit flip every output bit with probability ~1/2.
func (h Hasher) Sum() uint64 {
	x := uint64(h)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
