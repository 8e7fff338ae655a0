// Package dataset models training datasets at block granularity and
// produces the access streams that drive the batch-level simulator and
// the testbed: the regular epoch-shuffled exactly-once stream (§2.2)
// and the curriculum-learning stream paced by Eq. 10 (§7.4).
package dataset

import (
	"fmt"
	"math"

	"repro/internal/simrng"
	"repro/internal/unit"
	"repro/internal/workload"
)

// DefaultBlockSize is the cache block granularity used wherever a
// caller does not choose one.
const DefaultBlockSize = 64 * unit.MB

// Blocks is the block-granularity view of a dataset.
type Blocks struct {
	Name      string
	Size      unit.Bytes
	BlockSize unit.Bytes
	Num       int
}

// New splits a dataset of the given size into blocks. The final partial
// block is rounded up to a whole block, so Num*BlockSize >= Size.
func New(name string, size, blockSize unit.Bytes) (Blocks, error) {
	if size <= 0 {
		return Blocks{}, fmt.Errorf("dataset: non-positive size %v for %q", size, name)
	}
	if blockSize <= 0 {
		return Blocks{}, fmt.Errorf("dataset: non-positive block size %v for %q", blockSize, name)
	}
	n := int(math.Ceil(float64(size) / float64(blockSize)))
	if n < 1 {
		n = 1
	}
	return Blocks{Name: name, Size: size, BlockSize: blockSize, Num: n}, nil
}

// FromWorkload builds the block view of a workload dataset at the
// default block size.
func FromWorkload(d workload.Dataset) (Blocks, error) {
	return New(d.Name, d.Size, DefaultBlockSize)
}

// Stream yields the sequence of block accesses a training job performs.
type Stream interface {
	// Next returns the next block to read and whether a new epoch (or
	// pacing-window change, for curriculum) began at this access.
	Next() (block int, newEpoch bool)
	// Epoch reports the zero-based index of the current epoch.
	Epoch() int
}

// EpochStream is the regular DL access pattern: every epoch visits every
// block exactly once in a fresh random order.
type EpochStream struct {
	blocks Blocks
	rng    *simrng.RNG
	perm   []int
	pos    int
	epoch  int
}

// NewEpochStream returns a stream over b seeded by rng.
func NewEpochStream(b Blocks, rng *simrng.RNG) *EpochStream {
	s := &EpochStream{blocks: b, rng: rng, epoch: -1}
	s.reshuffle()
	return s
}

func (s *EpochStream) reshuffle() {
	s.perm = s.rng.Perm(s.blocks.Num)
	s.pos = 0
	s.epoch++
}

// Next implements Stream.
func (s *EpochStream) Next() (int, bool) {
	newEpoch := false
	if s.pos >= len(s.perm) {
		s.reshuffle()
		newEpoch = true
	}
	if s.epoch == 0 && s.pos == 0 {
		newEpoch = true
	}
	b := s.perm[s.pos]
	s.pos++
	return b, newEpoch
}

// Epoch implements Stream.
func (s *EpochStream) Epoch() int { return s.epoch }

// RestartEpoch rewinds the stream to the start of the current epoch
// with a fresh shuffle — the crash-recovery path: a restarted job
// replays its current epoch from scratch (epoch-granular rollback),
// and a real loader would draw a new permutation. The epoch counter
// does not advance.
func (s *EpochStream) RestartEpoch() {
	s.perm = s.rng.Perm(s.blocks.Num)
	s.pos = 0
}

// StepsPerEpoch reports the accesses per epoch.
func (s *EpochStream) StepsPerEpoch() int { return s.blocks.Num }

// CurriculumStream implements the §7.4 access pattern: blocks are
// pre-sorted by training difficulty (block ID order), and each access
// samples uniformly from the prefix admitted by the pacing function.
// There is no epoch concept; newEpoch fires when the pacing window
// grows, since that is when cache-effectiveness conditions change.
type CurriculumStream struct {
	blocks    Blocks
	spec      workload.CurriculumSpec
	rng       *simrng.RNG
	iteration int64
	lastVis   int
}

// NewCurriculumStream returns a curriculum stream over b.
func NewCurriculumStream(b Blocks, spec workload.CurriculumSpec, rng *simrng.RNG) (*CurriculumStream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &CurriculumStream{blocks: b, spec: spec, rng: rng, lastVis: -1}, nil
}

// VisibleBlocks reports how many blocks the pacing function admits at
// the given iteration.
func (s *CurriculumStream) VisibleBlocks(iteration int64) int {
	n := int(math.Ceil(s.spec.VisibleFraction(iteration) * float64(s.blocks.Num)))
	if n < 1 {
		n = 1
	}
	if n > s.blocks.Num {
		n = s.blocks.Num
	}
	return n
}

// Next implements Stream.
func (s *CurriculumStream) Next() (int, bool) {
	vis := s.VisibleBlocks(s.iteration)
	grew := vis != s.lastVis
	s.lastVis = vis
	s.iteration++
	return s.rng.Intn(vis), grew
}

// Epoch implements Stream. Curriculum training has no epochs; we report
// the pacing-step index, the closest analogue.
func (s *CurriculumStream) Epoch() int {
	if s.iteration == 0 {
		return 0
	}
	return int((s.iteration - 1) / s.spec.StepSize)
}

// Iteration reports the number of accesses made so far.
func (s *CurriculumStream) Iteration() int64 { return s.iteration }
