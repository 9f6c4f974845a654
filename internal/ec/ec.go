// Package ec implements the rack-aware Reed-Solomon erasure-coding
// subsystem: an RS(k,m) codec over GF(2^8), a Striper that maps a vSSD's
// logical pages onto k data + m parity chunks with rotated parity, a
// rack-aware Placer that never co-locates two chunks of one stripe on the
// same server, and a ChunkMap that tracks where a group's chunks live,
// plans their degraded reads and repairs, and queues chunk repairs so
// the rack can admit repair traffic only in switch-observed GC idle
// windows.
//
// The codec is systematic: the first k shards of a stripe are the data
// itself and the m parity shards are generated from a Cauchy matrix, whose
// every square submatrix is invertible — any k surviving shards of the
// k+m reconstruct the stripe, and losing more than m shards is reported
// as ErrStripeUnrecoverable.
package ec

import (
	"errors"
	"fmt"
)

// ErrStripeUnrecoverable reports that fewer than k shards of a stripe
// survive, so the stripe's data is lost (more than m erasures).
var ErrStripeUnrecoverable = errors.New("ec: stripe unrecoverable: fewer than k shards survive")

// MaxShards bounds k+m: GF(2^8) Cauchy construction needs 2(k+m) distinct
// field elements.
const MaxShards = 128

// Spec is an RS(k,m) redundancy parameterization.
type Spec struct {
	// K is the number of data chunks per stripe.
	K int
	// M is the number of parity chunks per stripe.
	M int
}

// Width is the total number of chunks per stripe, k+m.
func (s Spec) Width() int { return s.K + s.M }

// Validate checks the spec against a server count: every chunk of a
// stripe must land on a distinct server, so the rack needs at least k+m.
func (s Spec) Validate(servers int) error {
	if s.K < 1 {
		return fmt.Errorf("ec: k must be >= 1, got %d", s.K)
	}
	if s.M < 1 {
		return fmt.Errorf("ec: m must be >= 1, got %d", s.M)
	}
	if s.Width() > MaxShards {
		return fmt.Errorf("ec: k+m = %d exceeds %d", s.Width(), MaxShards)
	}
	if s.Width() > servers {
		return fmt.Errorf("ec: RS(%d,%d) needs %d servers for rack-aware placement, have %d",
			s.K, s.M, s.Width(), servers)
	}
	return nil
}

// ValidateCluster checks the spec against a multi-rack topology. Spread
// placement caps every rack at m chunks of a stripe — so a whole-rack
// failure erases at most m chunks and any stripe stays recoverable —
// which needs at least ceil((k+m)/m) racks and enough servers per rack to
// host the round-robin share ceil((k+m)/racks) on distinct machines.
func (s Spec) ValidateCluster(racks, serversPerRack int, mode PlacementMode) error {
	if racks < 1 {
		racks = 1
	}
	if mode != PlaceSpread || racks == 1 {
		// Compact placement confines each group to one rack.
		return s.Validate(serversPerRack)
	}
	if err := s.Validate(racks * serversPerRack); err != nil {
		return err
	}
	minRacks := (s.Width() + s.M - 1) / s.M
	if racks < minRacks {
		return fmt.Errorf("ec: spread RS(%d,%d) needs >= %d racks to keep <= m chunks per rack, have %d",
			s.K, s.M, minRacks, racks)
	}
	perRack := (s.Width() + racks - 1) / racks
	if perRack > serversPerRack {
		return fmt.Errorf("ec: spread RS(%d,%d) over %d racks places %d chunks in a rack, only %d servers there",
			s.K, s.M, racks, perRack, serversPerRack)
	}
	return nil
}

func (s Spec) String() string { return fmt.Sprintf("RS(%d,%d)", s.K, s.M) }

// GF(2^8) arithmetic with the AES polynomial 0x11d, via exp/log tables.
var (
	gfExp [512]byte
	gfLog [256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		x2 := int(x) << 1
		if x2 >= 256 {
			x2 ^= 0x11d
		}
		x = byte(x2)
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ec: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

func gfInv(a byte) byte { return gfDiv(1, a) }

// Codec encodes and reconstructs RS(k,m) stripes.
type Codec struct {
	spec Spec
	// gen is the systematic (k+m) x k generator matrix: identity on the
	// first k rows, a Cauchy matrix on the last m.
	gen [][]byte
}

// NewCodec builds a codec for the spec (server count is not the codec's
// concern; Validate with Width() so standalone use works).
func NewCodec(spec Spec) (*Codec, error) {
	if err := spec.Validate(spec.Width()); err != nil {
		return nil, err
	}
	k, m := spec.K, spec.M
	gen := make([][]byte, k+m)
	for i := 0; i < k; i++ {
		gen[i] = make([]byte, k)
		gen[i][i] = 1
	}
	// Cauchy block: row i, col j = 1/(x_i + y_j) with x_i = k+i, y_j = j.
	// All x_i and y_j are distinct, so every entry is defined and every
	// square submatrix of the full generator is invertible (MDS).
	for i := 0; i < m; i++ {
		gen[k+i] = make([]byte, k)
		for j := 0; j < k; j++ {
			gen[k+i][j] = gfInv(byte(k+i) ^ byte(j))
		}
	}
	return &Codec{spec: spec, gen: gen}, nil
}

// Spec returns the codec's parameters.
func (c *Codec) Spec() Spec { return c.spec }

// Encode computes the m parity shards from k equal-length data shards.
func (c *Codec) Encode(data [][]byte) ([][]byte, error) {
	k, m := c.spec.K, c.spec.M
	if len(data) != k {
		return nil, fmt.Errorf("ec: encode needs %d data shards, got %d", k, len(data))
	}
	size := len(data[0])
	for i, d := range data {
		if len(d) != size {
			return nil, fmt.Errorf("ec: shard %d length %d != %d", i, len(d), size)
		}
	}
	parity := make([][]byte, m)
	for i := 0; i < m; i++ {
		parity[i] = make([]byte, size)
		row := c.gen[k+i]
		for j := 0; j < k; j++ {
			coef := row[j]
			if coef == 0 {
				continue
			}
			src := data[j]
			dst := parity[i]
			for b := 0; b < size; b++ {
				dst[b] ^= gfMul(coef, src[b])
			}
		}
	}
	return parity, nil
}

// Reconstruct fills the nil entries of shards (length k+m, data shards
// first) from any k surviving shards. It returns ErrStripeUnrecoverable
// when fewer than k survive.
func (c *Codec) Reconstruct(shards [][]byte) error {
	k, m := c.spec.K, c.spec.M
	if len(shards) != k+m {
		return fmt.Errorf("ec: reconstruct needs %d shards, got %d", k+m, len(shards))
	}
	present := make([]int, 0, k)
	size := -1
	for i, sh := range shards {
		if sh == nil {
			continue
		}
		if size == -1 {
			size = len(sh)
		} else if len(sh) != size {
			return fmt.Errorf("ec: shard %d length %d != %d", i, len(sh), size)
		}
		present = append(present, i)
	}
	if len(present) < k {
		return fmt.Errorf("%w: have %d of %d needed", ErrStripeUnrecoverable, len(present), k)
	}
	if len(present) == k+m {
		return nil // nothing missing
	}

	// Build the k x k decode system from the first k surviving rows and
	// invert it: data = inv(sub) * surviving.
	rows := present[:k]
	sub := make([][]byte, k)
	for i, r := range rows {
		sub[i] = append([]byte(nil), c.gen[r]...)
	}
	inv, err := gfInvertMatrix(sub)
	if err != nil {
		return err
	}

	// Recover the data shards first.
	data := make([][]byte, k)
	for j := 0; j < k; j++ {
		if shards[j] != nil {
			data[j] = shards[j]
		}
	}
	for j := 0; j < k; j++ {
		if data[j] != nil {
			continue
		}
		out := make([]byte, size)
		for i, r := range rows {
			coef := inv[j][i]
			if coef == 0 {
				continue
			}
			src := shards[r]
			for b := 0; b < size; b++ {
				out[b] ^= gfMul(coef, src[b])
			}
		}
		data[j] = out
		shards[j] = out
	}
	// Re-encode any missing parity from the (now complete) data.
	for i := 0; i < m; i++ {
		if shards[k+i] != nil {
			continue
		}
		out := make([]byte, size)
		row := c.gen[k+i]
		for j := 0; j < k; j++ {
			coef := row[j]
			if coef == 0 {
				continue
			}
			src := data[j]
			for b := 0; b < size; b++ {
				out[b] ^= gfMul(coef, src[b])
			}
		}
		shards[k+i] = out
	}
	return nil
}

// gfInvertMatrix inverts a square matrix over GF(2^8) by Gauss-Jordan
// elimination with an augmented identity.
func gfInvertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	aug := make([][]byte, n)
	for i := range aug {
		aug[i] = make([]byte, 2*n)
		copy(aug[i], m[i])
		aug[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if aug[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errors.New("ec: singular decode matrix")
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		scale := gfInv(aug[col][col])
		for c := 0; c < 2*n; c++ {
			aug[col][c] = gfMul(aug[col][c], scale)
		}
		for r := 0; r < n; r++ {
			if r == col || aug[r][col] == 0 {
				continue
			}
			coef := aug[r][col]
			for c := 0; c < 2*n; c++ {
				aug[r][c] ^= gfMul(coef, aug[col][c])
			}
		}
	}
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = aug[i][n:]
	}
	return inv, nil
}
