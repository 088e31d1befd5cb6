// Package emu provides the functional emulator: a sparse byte-addressed
// memory, precise instruction semantics (Exec), an architectural machine
// for whole-program runs, and copy-on-write overlay state used by the
// cycle-level pipeline to execute wrong-path instructions without
// disturbing architectural state.
package emu

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, zero-filled, little-endian byte-addressed memory.
// Reads of unmapped addresses return zero; writes allocate pages on demand.
// The zero value is ready to use.
//
// Two fast paths sit in front of the page map:
//
//   - A flat code region (SetCodeRegion): one contiguous slice covering
//     the loaded image's text segment, indexed with a single bounds check.
//     The slice initially aliases the image's bytes — shared read-only by
//     every machine loading the same image — and is cloned copy-on-write
//     by the first store into it, which also sets the codeDirty flag so
//     instruction fetch stops trusting the predecode plane.
//   - A 2-entry most-recently-used page cache for everything else,
//     exploiting the locality of stack and data traffic: a program
//     alternating between its stack page and its globals page hits one of
//     the two. Pages are never freed, so the cache can only go stale by
//     being overwritten, never dangle.
type Memory struct {
	pages map[uint32]*[pageSize]byte

	codeBase   uint32
	code       []byte
	codeShared bool // code still aliases the image segment (clone before store)
	codeDirty  bool // some store has landed in the code region

	// codeInvalidations counts clean→dirty transitions of the code region —
	// each one invalidates the predecode plane and every basic-block
	// descriptor over it for this machine. SetCodeRegion re-arms the flag,
	// so a region can be invalidated once per installation.
	codeInvalidations uint64

	// The page cache: the last page touched, then the one before it. A
	// key is the page number + 1; 0 = empty. The access fast paths test
	// the first entry; page tests the second before the map and swaps
	// the two on a hit.
	lastKey  uint32
	lastPage *[pageSize]byte
	prevKey  uint32
	prevPage *[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{pages: make(map[uint32]*[pageSize]byte)} }

// SetCodeRegion installs the flat code region [base, base+len(data)).
// data is retained and aliased, not copied: callers share one image's
// segment bytes across machines, and the first store into the region
// clones it (copy-on-write) so the image stays immutable. Reads and
// writes inside the region never touch the page map.
func (m *Memory) SetCodeRegion(base uint32, data []byte) {
	m.codeBase = base
	m.code = data
	m.codeShared = true
	m.codeDirty = false
}

// clone returns an independent copy of the memory. Every data page is
// copied; a still-shared code region stays shared (the copy clones it on
// its first store), while a private one is copied.
func (m *Memory) clone() *Memory {
	c := *m
	c.pages = make(map[uint32]*[pageSize]byte, len(m.pages))
	for k, p := range m.pages {
		q := *p
		c.pages[k] = &q
	}
	if !m.codeShared {
		c.code = slices.Clone(m.code)
	}
	if m.lastKey != 0 {
		c.lastPage = c.pages[m.lastKey-1]
	}
	if m.prevKey != 0 {
		c.prevPage = c.pages[m.prevKey-1]
	}
	return &c
}

// Digest is a hash of the memory's contents: the code region and every
// data page, in address order. Two memories holding the same bytes at the
// same addresses digest alike; the tests that hold one machine to another
// compare it.
func (m *Memory) Digest() uint64 {
	h := fnv.New64a()
	h.Write(m.code)
	keys := make([]uint32, 0, len(m.pages))
	for k := range m.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var k [4]byte
	for _, key := range keys {
		binary.LittleEndian.PutUint32(k[:], key)
		h.Write(k[:])
		h.Write(m.pages[key][:])
	}
	return h.Sum64()
}

// CodeDirty reports whether any store has hit the code region since
// SetCodeRegion. Instruction fetch uses it as the predecode-plane
// invalidation hook: once dirty, fetch falls back to decode-on-read.
func (m *Memory) CodeDirty() bool { return m.codeDirty }

// storeCode performs a code-region store: clone-on-first-write, then mark
// the region dirty.
func (m *Memory) storeCode(off uint32, v byte) {
	if m.codeShared {
		m.code = append([]byte(nil), m.code...)
		m.codeShared = false
	}
	m.code[off] = v
	if !m.codeDirty {
		m.codeDirty = true
		m.codeInvalidations++
	}
}

// CodeInvalidations returns the number of clean→dirty code-region
// transitions (block/plane invalidation events) observed so far.
func (m *Memory) CodeInvalidations() uint64 { return m.codeInvalidations }

// page returns the page holding addr, allocating it when alloc is set
// (nil when absent and not allocated), and makes it the cache's first
// entry.
func (m *Memory) page(addr uint32, alloc bool) *[pageSize]byte {
	key := addr>>pageShift + 1
	if key == m.prevKey {
		m.lastKey, m.prevKey = m.prevKey, m.lastKey
		m.lastPage, m.prevPage = m.prevPage, m.lastPage
		return m.lastPage
	}
	if m.pages == nil {
		if !alloc {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte)
	}
	p := m.pages[key-1]
	if p == nil && alloc {
		p = new([pageSize]byte)
		m.pages[key-1] = p
	}
	if p != nil {
		m.prevKey, m.prevPage = m.lastKey, m.lastPage
		m.lastKey, m.lastPage = key, p
	}
	return p
}

// Read8 returns the byte at addr.
func (m *Memory) Read8(addr uint32) byte {
	if off := addr - m.codeBase; off < uint32(len(m.code)) {
		return m.code[off]
	}
	if key := addr>>pageShift + 1; key == m.lastKey {
		return m.lastPage[addr&pageMask]
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 stores one byte at addr.
func (m *Memory) Write8(addr uint32, v byte) {
	if off := addr - m.codeBase; off < uint32(len(m.code)) {
		m.storeCode(off, v)
		return
	}
	if key := addr>>pageShift + 1; key == m.lastKey {
		m.lastPage[addr&pageMask] = v
		return
	}
	m.page(addr, true)[addr&pageMask] = v
}

// straddlesCode reports whether the 4-byte access at addr begins below the
// code region but reaches into it (only possible when the region is not
// page-aligned); such accesses must take the byte path.
func (m *Memory) straddlesCode(addr uint32) bool {
	return len(m.code) != 0 && m.codeBase-addr < 4
}

// Read32 returns the little-endian word at addr (no alignment requirement
// at this layer; callers enforce ISA alignment).
func (m *Memory) Read32(addr uint32) uint32 {
	// Fast path: whole word within the flat code region.
	if off := addr - m.codeBase; off < uint32(len(m.code)) {
		if uint32(len(m.code))-off >= 4 {
			c := m.code
			return uint32(c[off]) | uint32(c[off+1])<<8 | uint32(c[off+2])<<16 | uint32(c[off+3])<<24
		}
	} else if addr&pageMask <= pageSize-4 && !m.straddlesCode(addr) {
		// Fast path: whole word within one data page.
		var p *[pageSize]byte
		if key := addr>>pageShift + 1; key == m.lastKey {
			p = m.lastPage
		} else {
			p = m.page(addr, false)
		}
		if p == nil {
			return 0
		}
		o := addr & pageMask
		return uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24
	}
	return uint32(m.Read8(addr)) | uint32(m.Read8(addr+1))<<8 |
		uint32(m.Read8(addr+2))<<16 | uint32(m.Read8(addr+3))<<24
}

// Write32 stores a little-endian word at addr.
func (m *Memory) Write32(addr uint32, v uint32) {
	if off := addr - m.codeBase; off < uint32(len(m.code)) {
		// Code-region store: byte path (storeCode handles CoW + dirty).
	} else if addr&pageMask <= pageSize-4 && !m.straddlesCode(addr) {
		var p *[pageSize]byte
		if key := addr>>pageShift + 1; key == m.lastKey {
			p = m.lastPage
		} else {
			p = m.page(addr, true)
		}
		o := addr & pageMask
		p[o], p[o+1], p[o+2], p[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return
	}
	m.Write8(addr, byte(v))
	m.Write8(addr+1, byte(v>>8))
	m.Write8(addr+2, byte(v>>16))
	m.Write8(addr+3, byte(v>>24))
}

// Read16 returns the little-endian halfword at addr.
func (m *Memory) Read16(addr uint32) uint16 {
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 stores a little-endian halfword at addr.
func (m *Memory) Write16(addr uint32, v uint16) {
	m.Write8(addr, byte(v))
	m.Write8(addr+1, byte(v>>8))
}

// WriteBytes copies data into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, data []byte) {
	for i, b := range data {
		m.Write8(addr+uint32(i), b)
	}
}

// PageCount returns the number of allocated pages (for tests and stats).
// The flat code region is not paged and does not count.
func (m *Memory) PageCount() int { return len(m.pages) }
