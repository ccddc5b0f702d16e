// Package volume is the volume manager layered over the server's
// block/shard path (DESIGN.md §18): thin-provisioned logical volumes with
// a logical→physical extent map, instant copy-on-write snapshots,
// writable clones, and snapshot-diff enumeration for incremental
// replication/backup streams.
//
// Model:
//
//   - A volume is a logical block space carved into fixed-size extents
//     (DefaultExtentBlocks protocol blocks each). Physical extents are
//     lazily allocated from a Pool — a reserved physical block range of
//     the device — on first write (thin provisioning). Unmapped logical
//     space reads as zeros.
//   - A snapshot freezes the volume's live extent map under a generation
//     number in O(1): the live map becomes an immutable chain layer and a
//     fresh empty map takes its place. Reads walk live→layer chain,
//     newest first. Writes after a snapshot allocate fresh extents and
//     touch only the live map (copy-on-write), so the frozen layers — and
//     every clone sharing them — are immutable forever.
//   - A clone is a writable volume whose chain starts at a snapshot
//     layer. Chain layers are reference-counted; an extent is owned by
//     exactly one map (the live map or one frozen layer) and is returned
//     to the pool when its owner dies.
//   - Diff(genA, genB] enumerates the logical extents written between two
//     generations — the layer chain makes this a walk of the layers in
//     that window — feeding the OpVolStream incremental backup stream.
//
// Concurrency: the data path (ReadAt/WriteAt/ReadAtGen) takes the
// volume's RWMutex — shared for reads and in-place overwrites of
// live-owned extents (the steady state, allocation-free), exclusive only
// for first-touch extent allocation and CoW breaks. Structural operations
// (create/snapshot/clone/delete/trim) serialize on the Manager.
package volume

import (
	"errors"
	"fmt"
	"sync"

	"github.com/reflex-go/reflex/internal/bufpool"
	"github.com/reflex-go/reflex/internal/protocol"
	"github.com/reflex-go/reflex/internal/storage"
)

// DefaultExtentBlocks is the default extent size in protocol blocks
// (128 × 512 B = 64 KiB): large enough that the map stays small, small
// enough that CoW first-touch copies stay cheap, and a multiple of the
// read cache's 4 KiB page so cache blocks never straddle extents.
const DefaultExtentBlocks = 128

// Hole marks a logical extent explicitly unmapped by a trim: the chain
// walk stops at it and the extent reads as zeros even when an older layer
// still maps it.
const Hole = ^uint32(0)

// MaxVolumes bounds live volume handles; handle 0 means "no volume" on
// the wire (the Registration.Volume byte), so handles run 1..MaxVolumes.
const MaxVolumes = 255

// Typed failures the server maps onto wire statuses.
var (
	// ErrNoSpace means the extent pool is exhausted (thin provisioning
	// overcommitted) — the wire's StatusNoCapacity.
	ErrNoSpace = errors.New("volume: extent pool exhausted")
	// ErrDead means the volume was deleted while still referenced.
	ErrDead = errors.New("volume: deleted")
	// ErrRange means an access beyond the volume's logical size.
	ErrRange = errors.New("volume: out of range")
	// ErrExists / ErrNotFound are name-registry failures.
	ErrExists   = errors.New("volume: name exists")
	ErrNotFound = errors.New("volume: not found")
)

// Pool allocates fixed-size physical extents from a reserved block range
// [FirstBlock, FirstBlock+Blocks) of the device. Extents are identified
// by dense indexes (what the maps store) and returned to a free list on
// release; OnFree, when set, observes releases (trim/discard plumbing —
// e.g. a simulated device invalidating the pages in their erase units).
type Pool struct {
	mu         sync.Mutex
	firstBlock uint64
	extBlocks  uint32
	total      uint32
	free       []uint32
	allocated  uint32

	// OnFree observes extent releases with the extent's physical block
	// range. Set before first use; called with the pool lock held.
	OnFree func(firstBlock uint64, blocks uint32)
}

// NewPool builds a pool of blocks/extentBlocks extents over the physical
// block range starting at firstBlock.
func NewPool(firstBlock, blocks uint64, extentBlocks uint32) (*Pool, error) {
	if extentBlocks == 0 {
		return nil, fmt.Errorf("volume: zero extent size")
	}
	total := blocks / uint64(extentBlocks)
	if total == 0 {
		return nil, fmt.Errorf("volume: pool of %d blocks holds no %d-block extent", blocks, extentBlocks)
	}
	if total >= uint64(Hole) {
		return nil, fmt.Errorf("volume: pool of %d extents exceeds the index space", total)
	}
	p := &Pool{firstBlock: firstBlock, extBlocks: extentBlocks, total: uint32(total)}
	p.free = make([]uint32, total)
	for i := range p.free {
		// LIFO off the tail; seed so extent 0 is handed out first.
		p.free[i] = uint32(total) - 1 - uint32(i)
	}
	return p, nil
}

// alloc hands out one extent index.
func (p *Pool) alloc() (uint32, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return 0, false
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.allocated++
	return idx, true
}

// release returns one extent index to the free list.
func (p *Pool) release(idx uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, idx)
	p.allocated--
	if p.OnFree != nil {
		p.OnFree(p.firstBlock+uint64(idx)*uint64(p.extBlocks), p.extBlocks)
	}
}

// physBlock is the first physical block of an extent.
func (p *Pool) physBlock(idx uint32) uint64 {
	return p.firstBlock + uint64(idx)*uint64(p.extBlocks)
}

// Allocated and Total report pool occupancy in extents.
func (p *Pool) Allocated() uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.allocated
}
func (p *Pool) Total() uint32 { return p.total }

// layer is one frozen generation of a volume's extent map. Immutable
// after freeze; shared by the volume's later generations and by clones.
// refs counts chain children (exactly one — the next layer or a volume's
// live map), clone attachments, and the snapshot registry entry; the
// Manager guards it and returns the layer's extents to the pool at zero.
type layer struct {
	gen    uint64
	parent *layer
	ents   map[uint32]uint32 // logical extent index → pool extent index or Hole
	refs   int32
}

// Volume is one logical volume (or writable clone).
type Volume struct {
	mgr    *Manager
	name   string
	handle uint16
	blocks uint64 // logical size in protocol blocks

	// mu guards the live map, chain head, generation and dead flag.
	// Shared on reads and in-place overwrites; exclusive on extent
	// allocation (first touch / CoW break), trim, snapshot and delete.
	mu     sync.RWMutex
	live   map[uint32]uint32
	parent *layer
	gen    uint64
	snaps  map[uint64]*layer
	dead   bool
}

// Name, Handle, Blocks, LogicalBytes, Gen — cheap accessors.
func (v *Volume) Name() string   { return v.name }
func (v *Volume) Handle() uint16 { return v.handle }
func (v *Volume) Blocks() uint64 { return v.blocks }
func (v *Volume) LogicalBytes() int64 {
	return int64(v.blocks) * protocol.BlockSize
}

// Gen returns the current write generation (snapshots freeze gens below
// it; the live map writes under it).
func (v *Volume) Gen() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.gen
}

// extBytes is the extent size in bytes.
func (v *Volume) extBytes() int64 {
	return int64(v.mgr.extBlocks) * protocol.BlockSize
}

// lookupLocked resolves a logical extent through live→chain, newest
// first. Returns (pool extent, true) for a mapping, (Hole, true) for an
// explicit trim hole, (0, false) for never-written. Caller holds v.mu.
func (v *Volume) lookupLocked(lext uint32) (uint32, bool) {
	if e, ok := v.live[lext]; ok {
		return e, true
	}
	for l := v.parent; l != nil; l = l.parent {
		if e, ok := l.ents[lext]; ok {
			return e, true
		}
	}
	return 0, false
}

// lookupGenLocked is lookupLocked bounded to generations <= gen (reading
// the volume as of a snapshot). The live map counts as generation v.gen.
func (v *Volume) lookupGenLocked(lext uint32, gen uint64) (uint32, bool) {
	if v.gen <= gen {
		if e, ok := v.live[lext]; ok {
			return e, true
		}
	}
	for l := v.parent; l != nil; l = l.parent {
		if l.gen > gen {
			continue
		}
		if e, ok := l.ents[lext]; ok {
			return e, true
		}
	}
	return 0, false
}

// zeroChunk backs hole reads (thin-provisioned space reads as zeros).
var zeroChunk [4096]byte

// zeroFill writes zeros into p without allocating.
func zeroFill(p []byte) {
	for len(p) > 0 {
		n := copy(p, zeroChunk[:])
		p = p[n:]
	}
}

// Translate resolves a byte range that must lie within one mapped extent
// to its physical byte offset on the device. ok is false when the range
// spans extents, is unmapped (a hole), or the volume is dead — callers
// (the read-cache probe) then skip the fast path. Allocation-free.
func (v *Volume) Translate(off int64, n int) (int64, bool) {
	if n <= 0 || off < 0 || off+int64(n) > v.LogicalBytes() {
		return 0, false
	}
	eb := v.extBytes()
	if off/eb != (off+int64(n)-1)/eb {
		return 0, false // spans extents
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.dead {
		return 0, false
	}
	ext, ok := v.lookupLocked(uint32(off / eb))
	if !ok || ext == Hole {
		return 0, false
	}
	phys := int64(v.mgr.pool.physBlock(ext)) * protocol.BlockSize
	return phys + off%eb, true
}

// ReadAt reads len(p) bytes at logical byte offset off, walking the
// live→snapshot chain per extent; unmapped space reads as zeros.
// Allocation-free at steady state.
func (v *Volume) ReadAt(p []byte, off int64) error {
	return v.readAt(p, off, ^uint64(0))
}

// ReadAtGen reads the volume as of generation gen (a frozen snapshot, or
// the current generation for the live image) — the diff stream's source.
func (v *Volume) ReadAtGen(p []byte, off int64, gen uint64) error {
	return v.readAt(p, off, gen)
}

func (v *Volume) readAt(p []byte, off int64, gen uint64) error {
	if off < 0 || off+int64(len(p)) > v.LogicalBytes() {
		return ErrRange
	}
	eb := v.extBytes()
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.dead {
		return ErrDead
	}
	for len(p) > 0 {
		lext := uint32(off / eb)
		in := off % eb
		n := eb - in
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		ext, ok := v.lookupGenLocked(lext, gen)
		if !ok || ext == Hole {
			zeroFill(p[:n])
		} else {
			phys := int64(v.mgr.pool.physBlock(ext))*protocol.BlockSize + in
			if _, err := v.mgr.backend.ReadAt(p[:n], phys); err != nil {
				return err
			}
		}
		p = p[n:]
		off += n
	}
	return nil
}

// WriteAt writes p at logical byte offset off. Overwrites of extents the
// live map already owns go straight to the device (shared lock, zero
// allocations — the steady state). First touches and CoW breaks take the
// exclusive lock, allocate a fresh extent from the pool, materialize its
// full image (old bytes from the chain, zeros for thin holes, the new
// bytes overlaid) and write it before publishing the mapping — so a
// physical extent is always fully written before any reader can map it,
// which is also what keeps recycled extents from leaking stale bytes
// through the physical-keyed read cache.
func (v *Volume) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > v.LogicalBytes() {
		return ErrRange
	}
	eb := v.extBytes()
	for len(p) > 0 {
		lext := uint32(off / eb)
		in := off % eb
		n := eb - in
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		if err := v.writeExtent(lext, in, p[:n]); err != nil {
			return err
		}
		p = p[n:]
		off += n
	}
	return nil
}

// writeExtent writes one extent-contained span.
func (v *Volume) writeExtent(lext uint32, in int64, p []byte) error {
	v.mu.RLock()
	if v.dead {
		v.mu.RUnlock()
		return ErrDead
	}
	if ext, ok := v.live[lext]; ok && ext != Hole {
		// Steady state: the live map owns this extent (it was allocated
		// in the current generation), so an in-place overwrite is safe —
		// no snapshot can see it.
		phys := int64(v.mgr.pool.physBlock(ext))*protocol.BlockSize + in
		_, err := v.mgr.backend.WriteAt(p, phys)
		v.mu.RUnlock()
		return err
	}
	v.mu.RUnlock()
	return v.cowExtent(lext, in, p)
}

// cowExtent breaks an extent out of the chain (or materializes a thin
// hole): allocate, build the full image, write it, publish the mapping.
func (v *Volume) cowExtent(lext uint32, in int64, p []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.dead {
		return ErrDead
	}
	if ext, ok := v.live[lext]; ok && ext != Hole {
		// Lost the race to another writer's CoW break; write in place.
		phys := int64(v.mgr.pool.physBlock(ext))*protocol.BlockSize + in
		_, err := v.mgr.backend.WriteAt(p, phys)
		return err
	}
	eb := v.extBytes()
	newExt, ok := v.mgr.pool.alloc()
	if !ok {
		return ErrNoSpace
	}
	lease := bufpool.Get(int(eb))
	buf := lease.Bytes()[:eb]
	old, mapped := v.lookupLocked(lext)
	if mapped && old != Hole {
		oldOff := int64(v.mgr.pool.physBlock(old)) * protocol.BlockSize
		if _, err := v.mgr.backend.ReadAt(buf, oldOff); err != nil {
			lease.Release()
			v.mgr.pool.release(newExt)
			return err
		}
	} else {
		zeroFill(buf)
	}
	copy(buf[in:], p)
	newOff := int64(v.mgr.pool.physBlock(newExt)) * protocol.BlockSize
	_, err := v.mgr.backend.WriteAt(buf, newOff)
	lease.Release()
	if err != nil {
		v.mgr.pool.release(newExt)
		return err
	}
	v.live[lext] = newExt
	return nil
}

// Trim discards the whole extents covered by [off, off+n): live-owned
// extents return to the pool immediately; extents inherited from the
// chain are shadowed with a Hole so they read as zeros without disturbing
// snapshots or clones. Partial extents at the edges are left alone —
// discard is advisory.
func (v *Volume) Trim(off, n int64) (freed int) {
	if n <= 0 {
		return 0
	}
	if end := v.LogicalBytes(); off+n > end {
		n = end - off
	}
	eb := v.extBytes()
	first := (off + eb - 1) / eb // first fully covered extent
	last := (off + n) / eb       // one past the last fully covered
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.dead {
		return 0
	}
	for lext := first; lext < last; lext++ {
		l := uint32(lext)
		if ext, ok := v.live[l]; ok {
			if ext != Hole {
				v.mgr.pool.release(ext)
				freed++
			}
		}
		if _, chained := v.chainHasLocked(l); chained {
			v.live[l] = Hole
		} else {
			delete(v.live, l)
		}
	}
	return freed
}

// chainHasLocked reports whether any frozen layer maps lext.
func (v *Volume) chainHasLocked(lext uint32) (uint32, bool) {
	for l := v.parent; l != nil; l = l.parent {
		if e, ok := l.ents[lext]; ok {
			return e, true
		}
	}
	return 0, false
}

// Diff enumerates the logical extents written in generations (genA,
// genB], sorted ascending — the incremental backup set between two
// snapshots (genB may be the current generation to include live writes).
// genA == 0 diffs from the volume's birth: every extent allocated by
// generation genB.
func (v *Volume) Diff(genA, genB uint64) ([]uint32, error) {
	if genB < genA {
		return nil, fmt.Errorf("volume: diff generations inverted (%d > %d)", genA, genB)
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	if v.dead {
		return nil, ErrDead
	}
	if genB > v.gen {
		return nil, fmt.Errorf("volume: generation %d not reached (current %d)", genB, v.gen)
	}
	set := make(map[uint32]struct{})
	if v.gen > genA && v.gen <= genB {
		for l := range v.live {
			set[l] = struct{}{}
		}
	}
	for l := v.parent; l != nil; l = l.parent {
		if l.gen <= genA {
			break // chain gens are strictly descending
		}
		if l.gen > genB {
			continue
		}
		for e := range l.ents {
			set[e] = struct{}{}
		}
	}
	out := make([]uint32, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sortU32(out)
	return out, nil
}

// sortU32 sorts ascending without pulling in package sort's interface
// allocation on tiny slices (insertion for short, else simple quicksort).
func sortU32(a []uint32) {
	if len(a) < 2 {
		return
	}
	if len(a) < 16 {
		for i := 1; i < len(a); i++ {
			for j := i; j > 0 && a[j] < a[j-1]; j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return
	}
	pivot := a[len(a)/2]
	lo, hi := 0, len(a)-1
	for lo <= hi {
		for a[lo] < pivot {
			lo++
		}
		for a[hi] > pivot {
			hi--
		}
		if lo <= hi {
			a[lo], a[hi] = a[hi], a[lo]
			lo++
			hi--
		}
	}
	sortU32(a[:hi+1])
	sortU32(a[lo:])
}

// ExtentBlocks returns the manager's extent size in protocol blocks.
func (v *Volume) ExtentBlocks() uint32 { return v.mgr.extBlocks }

// Snapshots lists the volume's registered snapshot generations, sorted.
func (v *Volume) Snapshots() []uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]uint64, 0, len(v.snaps))
	for g := range v.snaps {
		out = append(out, g)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Info is one volume's directory entry.
type Info struct {
	Name    string
	Handle  uint16
	Blocks  uint64
	Gen     uint64
	Extents uint32 // extents mapped by the live map (not Holes)
	Snaps   []uint64
}

// Config configures a Manager.
type Config struct {
	// Backend is the device store volumes allocate from. Every byte the
	// manager writes lands through it — wrap it with cache invalidation
	// before handing it over.
	Backend storage.Backend
	// FirstBlock/Blocks reserve the physical pool range in protocol
	// blocks.
	FirstBlock uint64
	Blocks     uint64
	// ExtentBlocks is the extent size in protocol blocks (default
	// DefaultExtentBlocks). Must keep extents 4 KiB-aligned so read-cache
	// pages never straddle extents.
	ExtentBlocks uint32
}

// Manager owns the extent pool and the volume registry.
type Manager struct {
	backend   storage.Backend
	pool      *Pool
	extBlocks uint32

	mu      sync.Mutex
	vols    map[string]*Volume
	handles [MaxVolumes + 1]*Volume
	nextH   uint16
}

// NewManager builds a volume manager over cfg's pool range.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("volume: nil backend")
	}
	eb := cfg.ExtentBlocks
	if eb == 0 {
		eb = DefaultExtentBlocks
	}
	if eb%8 != 0 {
		return nil, fmt.Errorf("volume: extent size %d blocks not 4KiB-aligned", eb)
	}
	devBlocks := uint64(cfg.Backend.Size()) / protocol.BlockSize
	if cfg.FirstBlock+cfg.Blocks > devBlocks {
		return nil, fmt.Errorf("volume: pool [%d,%d) exceeds device (%d blocks)",
			cfg.FirstBlock, cfg.FirstBlock+cfg.Blocks, devBlocks)
	}
	pool, err := NewPool(cfg.FirstBlock, cfg.Blocks, eb)
	if err != nil {
		return nil, err
	}
	return &Manager{
		backend:   cfg.Backend,
		pool:      pool,
		extBlocks: eb,
		vols:      make(map[string]*Volume),
		nextH:     1,
	}, nil
}

// Pool exposes the extent pool (occupancy stats, OnFree hook).
func (m *Manager) Pool() *Pool { return m.pool }

// ExtentBlocks returns the extent size in protocol blocks.
func (m *Manager) ExtentBlocks() uint32 { return m.extBlocks }

// claimHandle finds a free handle 1..MaxVolumes. Caller holds m.mu.
func (m *Manager) claimHandle() (uint16, bool) {
	for i := 0; i < MaxVolumes; i++ {
		h := m.nextH
		m.nextH++
		if m.nextH > MaxVolumes {
			m.nextH = 1
		}
		if m.handles[h] == nil {
			return h, true
		}
	}
	return 0, false
}

// Create registers a new thin volume of the given logical size.
func (m *Manager) Create(name string, blocks uint64) (*Volume, error) {
	if name == "" || len(name) > 255 {
		return nil, fmt.Errorf("volume: bad name %q", name)
	}
	if blocks == 0 || blocks > uint64(^uint32(0))*uint64(m.extBlocks) {
		return nil, fmt.Errorf("volume: bad size %d blocks", blocks)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vols[name]; ok {
		return nil, ErrExists
	}
	h, ok := m.claimHandle()
	if !ok {
		return nil, fmt.Errorf("volume: all %d handles live", MaxVolumes)
	}
	v := &Volume{
		mgr:    m,
		name:   name,
		handle: h,
		blocks: blocks,
		live:   make(map[uint32]uint32),
		gen:    1,
		snaps:  make(map[uint64]*layer),
	}
	m.vols[name] = v
	m.handles[h] = v
	return v, nil
}

// Get resolves a volume by name; ByHandle by wire handle.
func (m *Manager) Get(name string) (*Volume, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vols[name]
	return v, ok
}
func (m *Manager) ByHandle(h uint16) (*Volume, bool) {
	if h == 0 || h > MaxVolumes {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.handles[h]
	return v, v != nil
}

// List returns the volume directory sorted by name.
func (m *Manager) List() []Info {
	m.mu.Lock()
	vols := make([]*Volume, 0, len(m.vols))
	for _, v := range m.vols {
		vols = append(vols, v)
	}
	m.mu.Unlock()
	for i := 1; i < len(vols); i++ {
		for j := i; j > 0 && vols[j].name < vols[j-1].name; j-- {
			vols[j], vols[j-1] = vols[j-1], vols[j]
		}
	}
	out := make([]Info, 0, len(vols))
	for _, v := range vols {
		v.mu.RLock()
		mapped := uint32(0)
		for _, e := range v.live {
			if e != Hole {
				mapped++
			}
		}
		info := Info{
			Name:    v.name,
			Handle:  v.handle,
			Blocks:  v.blocks,
			Gen:     v.gen,
			Extents: mapped,
		}
		for g := range v.snaps {
			info.Snaps = append(info.Snaps, g)
		}
		v.mu.RUnlock()
		for i := 1; i < len(info.Snaps); i++ {
			for j := i; j > 0 && info.Snaps[j] < info.Snaps[j-1]; j-- {
				info.Snaps[j], info.Snaps[j-1] = info.Snaps[j-1], info.Snaps[j]
			}
		}
		out = append(out, info)
	}
	return out
}

// Snapshot freezes the volume's live map under its current generation and
// returns that generation. O(1): no extent is copied or even touched.
func (m *Manager) Snapshot(name string) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vols[name]
	if !ok {
		return 0, ErrNotFound
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.dead {
		return 0, ErrDead
	}
	l := &layer{
		gen:    v.gen,
		parent: v.parent,
		ents:   v.live,
		refs:   2, // chain child (the volume) + the snapshot registry
	}
	v.parent = l
	v.live = make(map[uint32]uint32)
	v.snaps[l.gen] = l
	gen := l.gen
	v.gen++
	return gen, nil
}

// Clone creates a writable volume rooted at src's snapshot generation
// gen. Instant: the clone shares every frozen extent through the chain
// and CoWs on write like its source.
func (m *Manager) Clone(src string, gen uint64, name string) (*Volume, error) {
	if name == "" || len(name) > 255 {
		return nil, fmt.Errorf("volume: bad name %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sv, ok := m.vols[src]
	if !ok {
		return nil, ErrNotFound
	}
	if _, ok := m.vols[name]; ok {
		return nil, ErrExists
	}
	sv.mu.RLock()
	l, ok := sv.snaps[gen]
	blocks := sv.blocks
	sv.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("volume: %s has no snapshot generation %d", src, gen)
	}
	h, hok := m.claimHandle()
	if !hok {
		return nil, fmt.Errorf("volume: all %d handles live", MaxVolumes)
	}
	l.refs++
	v := &Volume{
		mgr:    m,
		name:   name,
		handle: h,
		blocks: blocks,
		live:   make(map[uint32]uint32),
		parent: l,
		gen:    gen + 1,
		snaps:  make(map[uint64]*layer),
	}
	m.vols[name] = v
	m.handles[h] = v
	return v, nil
}

// Delete removes a volume (gen == 0) or unregisters one snapshot
// generation (gen != 0). Extents return to the pool as soon as no layer
// or live map owns them — a snapshot still referenced by a clone keeps
// its extents until the clone dies too. Returns the number of extents
// freed.
func (m *Manager) Delete(name string, gen uint64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vols[name]
	if !ok {
		return 0, ErrNotFound
	}
	if gen != 0 {
		v.mu.Lock()
		l, ok := v.snaps[gen]
		if ok {
			delete(v.snaps, gen)
		}
		v.mu.Unlock()
		if !ok {
			return 0, fmt.Errorf("volume: %s has no snapshot generation %d", name, gen)
		}
		return m.unrefLayer(l), nil
	}
	v.mu.Lock()
	v.dead = true
	freed := 0
	for _, e := range v.live {
		if e != Hole {
			m.pool.release(e)
			freed++
		}
	}
	v.live = nil
	snaps := v.snaps
	v.snaps = nil
	chain := v.parent
	v.parent = nil
	v.mu.Unlock()
	delete(m.vols, name)
	m.handles[v.handle] = nil
	if chain != nil {
		freed += m.unrefLayer(chain)
	}
	for _, l := range snaps {
		freed += m.unrefLayer(l)
	}
	return freed, nil
}

// unrefLayer drops one reference; at zero the layer's extents return to
// the pool and the reference it holds on its parent cascades. Caller
// holds m.mu.
func (m *Manager) unrefLayer(l *layer) int {
	freed := 0
	for l != nil {
		l.refs--
		if l.refs > 0 {
			return freed
		}
		for _, e := range l.ents {
			if e != Hole {
				m.pool.release(e)
				freed++
			}
		}
		l.ents = nil
		next := l.parent
		l.parent = nil
		l = next
	}
	return freed
}
