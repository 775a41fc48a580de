package mpi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func fillPattern(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*7)
	}
}

func TestDatatypeGeometry(t *testing.T) {
	cases := []struct {
		dt           Datatype
		size, extent int
		contig       bool
	}{
		{Contiguous(0), 0, 0, true},
		{Contiguous(17), 17, 17, true},
		{Vector(4, 8, 8), 32, 32, true},
		{Vector(4, 8, 32), 32, 3*32 + 8, false},
		{Vector(1, 5, 100), 5, 5, true},
		{Datatype{}, 0, 0, true},
	}
	for i, c := range cases {
		if got := c.dt.Size(); got != c.size {
			t.Errorf("case %d: Size=%d want %d", i, got, c.size)
		}
		if got := c.dt.Extent(); got != c.extent {
			t.Errorf("case %d: Extent=%d want %d", i, got, c.extent)
		}
		if got := c.dt.Contig(); got != c.contig {
			t.Errorf("case %d: Contig=%v want %v", i, got, c.contig)
		}
	}
	if !(Datatype{}).IsZero() {
		t.Error("zero Datatype should be IsZero")
	}
	if Contiguous(0).IsZero() {
		t.Error("Contiguous(0) must not be the untyped marker")
	}
}

func TestDatatypeValidate(t *testing.T) {
	if err := Vector(4, 8, 32).Validate(3*32 + 8); err != nil {
		t.Errorf("exact-fit layout rejected: %v", err)
	}
	if err := Vector(4, 8, 32).Validate(3*32 + 7); err == nil {
		t.Error("overrun layout accepted")
	}
	if err := Vector(2, 8, 4).Validate(100); err == nil {
		t.Error("overlapping blocks accepted")
	}
}

func TestDatatypePackUnpackRoundTrip(t *testing.T) {
	dt := Vector(5, 3, 10)
	base := make([]byte, dt.Extent())
	fillPattern(base, 1)
	packed := make([]byte, dt.Size())
	if n := dt.Pack(packed, base); n != dt.Size() {
		t.Fatalf("Pack=%d want %d", n, dt.Size())
	}
	out := make([]byte, dt.Extent())
	if n := dt.Unpack(out, packed); n != dt.Size() {
		t.Fatalf("Unpack=%d want %d", n, dt.Size())
	}
	for i := 0; i < dt.Count(); i++ {
		if !bytes.Equal(dt.Block(out, i), dt.Block(base, i)) {
			t.Fatalf("block %d mismatch after round trip", i)
		}
	}
	// Gaps must be untouched.
	for i := range out {
		inBlock := false
		for b := 0; b < dt.Count(); b++ {
			if i >= b*dt.Stride() && i < b*dt.Stride()+dt.BlockLen() {
				inBlock = true
			}
		}
		if !inBlock && out[i] != 0 {
			t.Fatalf("gap byte %d written", i)
		}
	}
}

// CopyTyped between any two layouts of equal Size must equal
// Pack(src)→Unpack(dst).
func TestCopyTypedMatchesPackUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gen := func(size int) Datatype {
		// Random factorization of size into count*blockLen plus slack stride.
		if size == 0 {
			return Contiguous(0)
		}
		bl := 1 + rng.Intn(size)
		for size%bl != 0 {
			bl = 1 + rng.Intn(size)
		}
		count := size / bl
		return Vector(count, bl, bl+rng.Intn(9))
	}
	for iter := 0; iter < 500; iter++ {
		size := rng.Intn(200)
		sdt, ddt := gen(size), gen(size)
		src := make([]byte, sdt.Extent())
		rng.Read(src)
		want := make([]byte, ddt.Extent())
		packed := make([]byte, size)
		sdt.Pack(packed, src)
		ddt.Unpack(want, packed)

		got := make([]byte, ddt.Extent())
		if n := CopyTyped(got, ddt, src, sdt); n != size {
			t.Fatalf("iter %d: CopyTyped=%d want %d (sdt=%+v ddt=%+v)", iter, n, size, sdt, ddt)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: CopyTyped differs from pack/unpack (sdt=%+v ddt=%+v)", iter, sdt, ddt)
		}
	}
}

func TestCopyTypedQuick(t *testing.T) {
	f := func(countS, blS, slackS, countD, slackD uint8, data []byte) bool {
		cs, bs := int(countS%8)+1, int(blS%16)+1
		size := cs * bs
		sdt := Vector(cs, bs, bs+int(slackS%8))
		// Destination: different factorization of the same size.
		cd := int(countD%8) + 1
		for size%cd != 0 {
			cd--
		}
		ddt := Vector(cd, size/cd, size/cd+int(slackD%8))
		src := make([]byte, sdt.Extent())
		copy(src, data)
		packed := make([]byte, size)
		sdt.Pack(packed, src)
		want := make([]byte, ddt.Extent())
		ddt.Unpack(want, packed)
		got := make([]byte, ddt.Extent())
		CopyTyped(got, ddt, src, sdt)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyTypedZeroIsWholeSlice pins the Op.Type convention CopyTyped
// shares with the transports: a zero Datatype is the whole base slice.
func TestCopyTypedZeroIsWholeSlice(t *testing.T) {
	src := []byte("abcdefgh")
	dst := make([]byte, 6)
	if n := CopyTyped(dst, Datatype{}, src, Datatype{}); n != 6 || string(dst) != "abcdef" {
		t.Errorf("zero<-zero copied %d bytes: %q", n, dst)
	}
	strided := make([]byte, 8)
	if n := CopyTyped(strided, Vector(2, 2, 4), src, Datatype{}); n != 4 || string(strided) != "ab\x00\x00cd\x00\x00" {
		t.Errorf("strided<-zero copied %d bytes: %q", n, strided)
	}
}
