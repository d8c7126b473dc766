package bdd

// Config tunes the kernel's data structures, mirroring BuDDy's
// bdd_init/bdd_setcacheratio knobs (the paper's Section 5.2 relies on
// a node table and operation caches sized to the workload). The zero
// value selects the defaults; New is New(Config{}) in spirit.
//
// Sizing guidance: NodeSize should approximate the peak node count of
// the workload — undersizing costs geometric regrows (cheap but not
// free), oversizing costs resident memory at 20 bytes per node.
// CacheRatio trades cache memory for hit rate: ratio 1 (one cache slot
// per table slot) suits join-heavy datalog workloads; ratio 4-8 suits
// memory-constrained deployments. See DESIGN.md's "BDD kernel"
// section for corpus-level numbers.
//
// These two sizes are the only knobs. The kernel has no garbage
// collection and no variable reordering: nodes live as long as their
// Manager, and a variable's level is its index.
type Config struct {
	// NodeSize is the initial node-table capacity in nodes, rounded up
	// to a power of two (minimum 1024). The table grows geometrically
	// (doubling, with a rehash) when full, so this is a floor, not a
	// cap. 0 means DefaultNodeSize.
	NodeSize int
	// CacheRatio sizes the direct-mapped operation caches relative to
	// the initial node table: each cache gets NodeSize/CacheRatio
	// slots, rounded up to a power of two (minimum 256). The caches are
	// lossy (collisions overwrite) and never grow. 0 means
	// DefaultCacheRatio.
	CacheRatio int
}

// Default kernel sizing: an 8K-node table with equal-sized caches
// fits small analyses in L2 while large corpora override via Config.
const (
	DefaultNodeSize   = 1 << 13
	DefaultCacheRatio = 1

	minNodeSize  = 1 << 10
	minCacheSize = 1 << 8

	// MaxNodeSize bounds Config.NodeSize (core.Options.Validate rejects
	// more). The table grows on demand, so a larger initial size only
	// claims memory up front, and past 2^62 rounding to a power of two
	// would never terminate.
	MaxNodeSize = 1 << 22
)

// normalized returns the config with defaults filled and sizes rounded
// to powers of two.
func (c Config) normalized() Config {
	if c.NodeSize <= 0 {
		c.NodeSize = DefaultNodeSize
	}
	if c.NodeSize < minNodeSize {
		c.NodeSize = minNodeSize
	}
	c.NodeSize = ceilPow2(c.NodeSize)
	if c.CacheRatio <= 0 {
		c.CacheRatio = DefaultCacheRatio
	}
	return c
}

// cacheSlots derives the per-cache slot count from the normalized
// config.
func (c Config) cacheSlots() int {
	s := c.NodeSize / c.CacheRatio
	if s < minCacheSize {
		s = minCacheSize
	}
	return ceilPow2(s)
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
