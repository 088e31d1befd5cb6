package program

import (
	"sync"
	"testing"

	"retstack/internal/isa"
)

// blockTestImage lays out known block structure:
//
//	idx 0..2  body (li expands to one inst here, plus two ALU) ending at
//	idx 3     jal            — block [0..3], length 4
//	idx 4     addi           — body, then
//	idx 5     syscall        — block [4..5], length 2
//	idx 6     jr             — terminator-only block, length 1
//	idx 7..8  trailing ALU with no terminator — runs to plane end
func blockTestImage(t *testing.T) *Image {
	t.Helper()
	b := NewBuilder()
	b.Label("main")
	b.Emit(isa.I(isa.OpADDI, 2, 0, 7))
	b.Emit(isa.R(isa.OpADD, 3, 2, 2))
	b.Emit(isa.R(isa.OpMUL, 4, 3, 3))
	b.Jal("leaf")
	b.Emit(isa.I(isa.OpADDI, 2, 2, 1))
	b.Emit(isa.Syscall())
	b.Label("leaf")
	b.Emit(isa.Jr(isa.RA))
	b.Emit(isa.R(isa.OpADD, 5, 4, 3), isa.R(isa.OpSUB, 6, 5, 4))
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestBlockLenAt(t *testing.T) {
	pl := blockTestImage(t).Predecode()
	want := []uint32{
		0: 4, 1: 3, 2: 2, 3: 1, // block ending at the jal, plus its suffixes
		4: 2, 5: 1, // addi+syscall
		6: 1,       // jr: a block of just its terminator
		7: 2, 8: 1, // no terminator: run to the end of the plane
	}
	for idx, wantN := range want {
		n, _ := pl.BlockLenAt(uint32(idx))
		if n != wantN {
			t.Errorf("BlockLenAt(%d) = %d, want %d", idx, n, wantN)
		}
	}
	// An index out of range is a caller's bug, caught by the slice's
	// bounds check; BlockLen answers 0 for a PC outside the plane.
	defer func() {
		if recover() == nil {
			t.Error("BlockLenAt(out of range) did not panic")
		}
	}()
	pl.BlockLenAt(uint32(pl.Len()))
}

// TestBlockLenLazySuffixFill pins the laziness contract: the first touch of
// a block builds it (filling every suffix index), later touches — including
// mid-block entries — are table hits.
func TestBlockLenLazySuffixFill(t *testing.T) {
	pl := blockTestImage(t).Predecode()
	if n, built := pl.BlockLenAt(0); n != 4 || !built {
		t.Fatalf("first BlockLenAt(0) = (%d, %v), want (4, true)", n, built)
	}
	for idx, wantN := range map[uint32]uint32{0: 4, 1: 3, 2: 2, 3: 1} {
		if n, built := pl.BlockLenAt(idx); n != wantN || built {
			t.Errorf("after build, BlockLenAt(%d) = (%d, %v), want (%d, false)",
				idx, n, built, wantN)
		}
	}
	// An untouched block still builds on first contact.
	if n, built := pl.BlockLenAt(4); n != 2 || !built {
		t.Errorf("BlockLenAt(4) = (%d, %v), want (2, true)", n, built)
	}
	pl.ResetBlocks()
	if n, built := pl.BlockLenAt(2); n != 2 || !built {
		t.Errorf("after ResetBlocks, BlockLenAt(2) = (%d, %v), want (2, true)", n, built)
	}
}

func TestBlockLenByPC(t *testing.T) {
	im := blockTestImage(t)
	pl := im.Predecode()
	base := pl.Base()
	if n, _ := pl.BlockLen(base); n != 4 {
		t.Errorf("BlockLen(base) = %d, want 4", n)
	}
	if n, _ := pl.BlockLen(base + 1); n != 0 {
		t.Error("BlockLen accepted an unaligned PC")
	}
	if n, _ := pl.BlockLen(base + uint32(pl.Len())*isa.WordBytes); n != 0 {
		t.Error("BlockLen accepted a PC past the plane")
	}
	if n, _ := pl.BlockLen(base - isa.WordBytes); n != 0 {
		t.Error("BlockLen accepted a PC below the plane")
	}
}

// TestBlockTerminatorClasses pins which classes end a block: every control
// transfer and the syscall, nothing else.
func TestBlockTerminatorClasses(t *testing.T) {
	term := map[isa.Class]bool{
		isa.ClassCondBranch: true, isa.ClassJump: true, isa.ClassCall: true,
		isa.ClassReturn: true, isa.ClassIndirect: true, isa.ClassIndirectCall: true,
		isa.ClassSyscall: true,
	}
	for c := isa.Class(0); c < 16; c++ {
		if got := IsBlockTerminator(c); got != term[c] {
			t.Errorf("IsBlockTerminator(%v) = %v, want %v", c, got, term[c])
		}
	}
}

// TestBlockBuildConcurrent races many goroutines building the same plane's
// blocks — the shared-image sweep case. Under -race this pins the atomic
// fill; all goroutines must agree on every length.
func TestBlockBuildConcurrent(t *testing.T) {
	pl := blockTestImage(t).Predecode()
	ref := make([]uint32, pl.Len())
	for i := range ref {
		ref[i], _ = pl.BlockLenAt(uint32(i))
	}
	pl.ResetBlocks()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				for i := 0; i < pl.Len(); i++ {
					idx := uint32((i + w) % pl.Len())
					if n, _ := pl.BlockLenAt(idx); n != ref[idx] {
						t.Errorf("concurrent BlockLenAt(%d) = %d, want %d", idx, n, ref[idx])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkBlockBuild measures the full lazy build of every descriptor over
// a synthetic plane (ResetBlocks un-builds between iterations; its memset is
// a negligible fraction of the scan).
func BenchmarkBlockBuild(b *testing.B) {
	bld := NewBuilder()
	bld.Label("main")
	// 4096 blocks of 15 ALU instructions plus a branch.
	for i := 0; i < 4096; i++ {
		for j := 0; j < 15; j++ {
			bld.Emit(isa.R(isa.OpADD, 2, 2, 3))
		}
		bld.Emit(isa.Branch(isa.OpBEQ, 0, 0, -15))
	}
	im, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	pl := im.Predecode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.ResetBlocks()
		for idx := uint32(0); idx < uint32(pl.Len()); {
			n, _ := pl.BlockLenAt(idx)
			idx += n
		}
	}
	b.ReportMetric(float64(pl.Len())*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
}
