// Package mem implements gem5rtl's main-memory substrate: an ideal 1-cycle
// memory (the paper's normalisation baseline) and event-driven DRAM
// controller models for the three technologies of Table 1 — DDR4-2400 (1/2/4
// channels), quad-channel GDDR5, and an 8-channel HBM stack. The controllers
// model per-channel read/write queues with back-pressure, banks with
// open-page row buffers, and a data bus that serialises bursts, yielding the
// bandwidth ceilings and queueing contention the paper's design-space
// exploration measures.
package mem

// Storage is sparse byte-addressable backing store shared by a controller's
// channels. Timing is handled by the controllers; Storage only moves data.
type Storage struct {
	pageBits uint
	pages    map[uint64][]byte
}

// NewStorage creates an empty store with 64 KiB pages.
func NewStorage() *Storage {
	return &Storage{pageBits: 16, pages: map[uint64][]byte{}}
}

func (s *Storage) page(addr uint64, alloc bool) ([]byte, uint64) {
	pn := addr >> s.pageBits
	off := addr & ((1 << s.pageBits) - 1)
	p, ok := s.pages[pn]
	if !ok && alloc {
		p = make([]byte, 1<<s.pageBits)
		s.pages[pn] = p
	}
	return p, off
}

// Read copies len(buf) bytes at addr into buf; unwritten memory reads zero.
func (s *Storage) Read(addr uint64, buf []byte) {
	for n := 0; n < len(buf); {
		p, off := s.page(addr+uint64(n), false)
		chunk := int(uint64(1)<<s.pageBits - off)
		if chunk > len(buf)-n {
			chunk = len(buf) - n
		}
		if p == nil {
			for i := 0; i < chunk; i++ {
				buf[n+i] = 0
			}
		} else {
			copy(buf[n:n+chunk], p[off:])
		}
		n += chunk
	}
}

// Write copies buf into memory at addr.
func (s *Storage) Write(addr uint64, buf []byte) {
	for n := 0; n < len(buf); {
		p, off := s.page(addr+uint64(n), true)
		chunk := int(uint64(1)<<s.pageBits - off)
		if chunk > len(buf)-n {
			chunk = len(buf) - n
		}
		copy(p[off:], buf[n:n+chunk])
		n += chunk
	}
}
