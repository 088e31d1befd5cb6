package slicepool

import "testing"

func TestTakeReusesBestFitCleared(t *testing.T) {
	var p Pool[int]
	big, small := p.Take(100), p.Take(10)
	big[49], small[7] = 7, 7
	p.Put(big)
	p.Put(small)

	got := p.Take(8)
	if cap(got) != cap(small) || &got[0] != &small[0] {
		t.Fatalf("Take(8) did not reuse the smallest fitting slice (cap %d)", cap(got))
	}
	if len(got) != 8 {
		t.Fatalf("len %d, want 8", len(got))
	}
	if got[7] != 0 {
		t.Fatal("reused slice was not cleared")
	}
	if got := p.Take(50); &got[0] != &big[0] || got[49] != 0 {
		t.Fatal("Take(50) did not reuse the large slice, cleared")
	}
	if got := p.Take(50); &got[0] == &big[0] {
		t.Fatal("a taken slice was handed out twice")
	}
}

func TestNilPoolAllocates(t *testing.T) {
	var p *Pool[byte]
	if s := p.Take(4); len(s) != 4 {
		t.Fatalf("len %d, want 4", len(s))
	}
}
