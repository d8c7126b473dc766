package bdd

// The node table, in BuDDy's image: one flat slice of fixed-size
// records with the unique-table hash embedded in the records
// themselves. Slot i plays two roles at once — it stores node i, and
// its hash field heads the collision chain of bucket i. A lookup
// hashes (level, low, high) to a bucket, walks that bucket's chain
// through the next links, and either finds the node or appends a fresh
// slot and pushes it onto the chain. No Go map, no per-node
// allocation, no pointer chasing beyond one int32 link per probe.
//
// Node 0 (the False terminal) is never chained, so 0 doubles as the
// nil link. The table capacity is always a power of two; when it
// fills, it doubles and every live node is rehashed (indices never
// change, so handles and cache entries stay valid across growth).

// node is one entry of the node table.
type node struct {
	level     int32
	low, high Node
	// hash heads the collision chain of the bucket sharing this slot's
	// index; next links this node into the chain of its own bucket.
	hash, next int32
}

// hash3 mixes a node triple into a bucket index (masked by the
// caller). Multiplicative mixing with an avalanche tail keeps the low
// bits well distributed for power-of-two tables.
func hash3(level int32, low, high Node) uint32 {
	h := uint32(level) * 0x9e3779b1
	h = (h ^ uint32(low)) * 0x85ebca6b
	h = (h ^ uint32(high)) * 0xc2b2ae35
	h ^= h >> 15
	return h
}

// initTable installs the terminals in a fresh table of the given
// capacity.
func (m *Manager) initTable(capacity int) {
	m.nodes = make([]node, capacity)
	m.mask = uint32(capacity - 1)
	m.nodes[False] = node{level: terminalLevel, low: False, high: False}
	m.nodes[True] = node{level: terminalLevel, low: True, high: True}
	m.free = 2
}

// mk returns the hash-consed node (level, low, high), applying the
// standard reduction rule low==high => low. This is the kernel's
// hottest path.
func (m *Manager) mk(level int32, low, high Node) Node {
	if low == high {
		return low
	}
	h := hash3(level, low, high)
	for i := m.nodes[h&m.mask].hash; i != 0; i = m.nodes[i].next {
		n := &m.nodes[i]
		if n.level == level && n.low == low && n.high == high {
			return Node(i)
		}
		m.uniqueCollisions++
	}
	if int(m.free) == len(m.nodes) {
		m.grow()
	}
	i := m.free
	m.free++
	n := &m.nodes[i]
	n.level, n.low, n.high = level, low, high
	b := &m.nodes[h&m.mask]
	n.next = b.hash
	b.hash = i
	return Node(i)
}

// grow doubles the table and rehashes every live node. Node indices
// are stable, so outstanding Nodes and operation-cache entries survive
// unchanged; only the buckets move.
func (m *Manager) grow() {
	oldLen := len(m.nodes)
	grown := make([]node, oldLen*2)
	copy(grown, m.nodes)
	m.nodes = grown
	m.mask = uint32(len(m.nodes) - 1)
	m.grows++
	for i := range m.nodes {
		m.nodes[i].hash = 0
		m.nodes[i].next = 0
	}
	for i := int32(2); i < m.free; i++ {
		n := &m.nodes[i]
		b := &m.nodes[hash3(n.level, n.low, n.high)&m.mask]
		n.next = b.hash
		b.hash = i
	}
	if m.OnEvent != nil {
		m.OnEvent("grow", int(m.free), len(m.nodes))
	}
}
