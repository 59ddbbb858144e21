// Package cache models the first-level data cache of the simulated
// processors. The paper's 21064A has a 16 KB direct-mapped L1 with 64-byte
// lines; the cache-pressure effect of Cashmere's write doubling on LU and
// Gauss (paper §4.3) depends directly on this geometry, so the model is a
// functional direct-mapped tag array rather than a statistical estimate.
package cache

import "fmt"

// Config describes an L1 cache geometry.
type Config struct {
	// SizeBytes is the total cache capacity. Must be a power of two.
	SizeBytes int
	// LineBytes is the cache line size. Must be a power of two.
	LineBytes int
}

// Alpha21064A is the paper's first-level cache: 16 KB direct-mapped, 64-byte
// lines (§4: "A cache line is 64 bytes"; §1: "very small first-level caches
// ... the 16K available").
var Alpha21064A = Config{SizeBytes: 16 * 1024, LineBytes: 64}

// Alpha21264 approximates the larger L1 of the follow-on processor the paper
// projects would "largely eliminate" the write-doubling working-set problem.
var Alpha21264 = Config{SizeBytes: 256 * 1024, LineBytes: 64}

// Validate reports whether the geometry is usable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0 {
		return fmt.Errorf("cache: size %d is not a positive power of two", c.SizeBytes)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a positive power of two", c.LineBytes)
	}
	if c.LineBytes > c.SizeBytes {
		return fmt.Errorf("cache: line size %d exceeds cache size %d", c.LineBytes, c.SizeBytes)
	}
	return nil
}

// Lines returns the number of lines in the cache.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// L1 is a direct-mapped cache model. It tracks only tags (the simulator keeps
// data elsewhere); Access reports hit or miss and updates the tag array.
type L1 struct {
	lineShift uint
	indexMask uint64
	tagShift  uint     // bits of line number consumed by the index
	tags      []uint64 // tag+1; 0 means invalid

	hits   uint64
	misses uint64
}

// New creates an L1 model with the given geometry.
func New(cfg Config) (*L1, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &L1{tags: make([]uint64, cfg.Lines())}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	c.indexMask = uint64(cfg.Lines() - 1)
	c.tagShift = uint(len64(c.indexMask))
	return c, nil
}

// Access touches the line containing addr and reports whether it hit. On a
// miss the line is filled (previous occupant evicted).
func (c *L1) Access(addr uint64) bool {
	line := addr >> c.lineShift
	idx := line & c.indexMask
	tag := line>>c.tagShift + 1
	if c.tags[idx] == tag {
		c.hits++
		return true
	}
	c.tags[idx] = tag
	c.misses++
	return false
}

// Hits returns the number of hits so far.
func (c *L1) Hits() uint64 { return c.hits }

// Misses returns the number of misses so far.
func (c *L1) Misses() uint64 { return c.misses }

// len64 returns the number of significant bits in mask: k for a mask of the
// form 2^k-1.
func len64(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}
