// Package addrmap maps physical addresses to memory-system coordinates:
// memory controller (channel), LLC slice within the controller, DRAM bank
// and DRAM row.
//
// Two schemes are provided, mirroring the paper's sensitivity study
// (Section 6.4, "Address Mapping"):
//
//   - PAE (page address entropy, the paper default): higher address bits
//     are XOR-folded into the channel, slice and bank index bits so that
//     memory accesses are spread nearly uniformly across channels, slices
//     and banks even for strided access patterns.
//   - Hynix: plain bit slicing as in the GDDR5 data sheet. Strided access
//     patterns can leave channels and banks imbalanced, which the paper
//     uses to show that adaptive caching helps even more when the request
//     stream is imbalanced.
//
// The mapping also answers the central organizational question of the
// paper: which LLC slice does a request go to? Under a shared LLC the
// slice is a pure function of the address; under a private LLC the slice
// is the requesting cluster's slice within the address's home memory
// controller.
package addrmap

import (
	"fmt"
	"math/bits"
)

// Location identifies where in the memory system a cache-line address lives.
type Location struct {
	Channel int // memory controller index
	Slice   int // LLC slice index within the memory controller (shared-mode home slice)
	Bank    int // DRAM bank within the memory controller
	Row     uint64
	Col     uint64
}

// Mapper converts cache-line addresses to memory-system locations.
type Mapper interface {
	// Map returns the location of the cache line containing addr.
	Map(addr uint64) Location
}

// Geometry captures the parameters the mapping schemes need.
type Geometry struct {
	LineBytes   int // cache line size (128 B in the paper)
	Channels    int // number of memory controllers
	SlicesPerMC int // LLC slices per memory controller
	Banks       int // DRAM banks per memory controller
	RowBytes    int // DRAM row size in bytes (per bank)
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.LineBytes <= 0 || !isPow2(g.LineBytes):
		return fmt.Errorf("addrmap: LineBytes must be a positive power of two, got %d", g.LineBytes)
	case g.Channels <= 0 || !isPow2(g.Channels):
		return fmt.Errorf("addrmap: Channels must be a positive power of two, got %d", g.Channels)
	case g.SlicesPerMC <= 0 || !isPow2(g.SlicesPerMC):
		return fmt.Errorf("addrmap: SlicesPerMC must be a positive power of two, got %d", g.SlicesPerMC)
	case g.Banks <= 0 || !isPow2(g.Banks):
		return fmt.Errorf("addrmap: Banks must be a positive power of two, got %d", g.Banks)
	case g.RowBytes <= 0 || !isPow2(g.RowBytes):
		return fmt.Errorf("addrmap: RowBytes must be a positive power of two, got %d", g.RowBytes)
	}
	return nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int) int { return bits.TrailingZeros64(uint64(v)) }

// DefaultGeometry returns the geometry matching the paper's Table 1
// configuration: 128 B lines, 8 memory controllers, 8 LLC slices per
// controller, 16 banks and 2 KB DRAM rows.
func DefaultGeometry() Geometry {
	return Geometry{
		LineBytes:   128,
		Channels:    8,
		SlicesPerMC: 8,
		Banks:       16,
		RowBytes:    2048,
	}
}

// ---------------------------------------------------------------------------
// PAE mapping
// ---------------------------------------------------------------------------

// PAE implements a page-address-entropy style mapping: the channel, slice
// and bank indices are computed by XOR-folding all higher address bits into
// the respective index fields, which maximizes entropy in those bits and
// spreads requests uniformly.
type PAE struct {
	geom      Geometry
	lineShift uint
	chanBits  uint
	sliceBits uint
	bankBits  uint
	colBits   uint
}

// NewPAE returns a PAE mapper for the given geometry.
func NewPAE(g Geometry) (*PAE, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &PAE{
		geom:      g,
		lineShift: uint(log2(g.LineBytes)),
		chanBits:  uint(log2(g.Channels)),
		sliceBits: uint(log2(g.SlicesPerMC)),
		bankBits:  uint(log2(g.Banks)),
		colBits:   uint(log2(g.RowBytes / g.LineBytes)),
	}, nil
}

// Map implements Mapper.
func (p *PAE) Map(addr uint64) Location {
	line := addr >> p.lineShift

	chanIdx := foldXOR(line, p.chanBits)
	rest := line >> p.chanBits
	sliceIdx := foldXOR(rest, p.sliceBits)
	rest2 := rest >> p.sliceBits
	bankIdx := foldXOR(rest2, p.bankBits)

	col := rest2 & ((1 << p.colBits) - 1)
	row := rest2 >> p.colBits

	return Location{
		Channel: int(chanIdx),
		Slice:   int(sliceIdx),
		Bank:    int(bankIdx),
		Row:     row,
		Col:     col,
	}
}

// foldXOR reduces v to `width` bits by XOR-ing successive width-bit chunks.
// For width 0 it returns 0.
func foldXOR(v uint64, width uint) uint64 {
	if width == 0 {
		return 0
	}
	mask := uint64(1)<<width - 1
	var out uint64
	for v != 0 {
		out ^= v & mask
		v >>= width
	}
	return out
}

// ---------------------------------------------------------------------------
// Hynix mapping
// ---------------------------------------------------------------------------

// Hynix implements a data-sheet-style plain bit-sliced mapping:
//
//	addr = | row | bank | channel | slice | column | line offset |
//
// Because the channel and bank bits come from fixed low-order positions,
// strided access patterns commonly alias onto the same channel or bank,
// producing the imbalance the paper's sensitivity study exploits.
type Hynix struct {
	geom      Geometry
	lineShift uint
	chanBits  uint
	sliceBits uint
	bankBits  uint
	colBits   uint
}

// NewHynix returns a Hynix-style mapper for the given geometry.
func NewHynix(g Geometry) (*Hynix, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Hynix{
		geom:      g,
		lineShift: uint(log2(g.LineBytes)),
		chanBits:  uint(log2(g.Channels)),
		sliceBits: uint(log2(g.SlicesPerMC)),
		bankBits:  uint(log2(g.Banks)),
		colBits:   uint(log2(g.RowBytes / g.LineBytes)),
	}, nil
}

// Map implements Mapper.
func (h *Hynix) Map(addr uint64) Location {
	line := addr >> h.lineShift

	col := line & ((1 << h.colBits) - 1)
	rest := line >> h.colBits
	sliceIdx := rest & ((1 << h.sliceBits) - 1)
	rest >>= h.sliceBits
	chanIdx := rest & ((1 << h.chanBits) - 1)
	rest >>= h.chanBits
	bankIdx := rest & ((1 << h.bankBits) - 1)
	row := rest >> h.bankBits

	return Location{
		Channel: int(chanIdx),
		Slice:   int(sliceIdx),
		Bank:    int(bankIdx),
		Row:     row,
		Col:     col,
	}
}

// ---------------------------------------------------------------------------
// Construction helper
// ---------------------------------------------------------------------------

// Scheme names accepted by New.
const (
	SchemePAE   = "pae"
	SchemeHynix = "hynix"
)

// New constructs a Mapper by scheme name.
func New(scheme string, g Geometry) (Mapper, error) {
	switch scheme {
	case SchemePAE:
		return NewPAE(g)
	case SchemeHynix:
		return NewHynix(g)
	default:
		return nil, fmt.Errorf("addrmap: unknown scheme %q", scheme)
	}
}
