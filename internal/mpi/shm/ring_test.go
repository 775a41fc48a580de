package shm

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestRingStreamSPSC stresses the stream mode across two goroutines with a
// tiny ring, forcing many wraparounds, and checks the byte stream arrives
// intact and in order.
func TestRingStreamSPSC(t *testing.T) {
	const total = 1 << 20
	r := NewRing(257) // prime-ish, never divides the write sizes
	src := make([]byte, total)
	rng := rand.New(rand.NewSource(7))
	rng.Read(src)
	go func() {
		sent := 0
		for sent < total {
			chunk := min(1+rng.Intn(400), total-sent)
			for chunk > 0 {
				n := r.TryWrite(src[sent : sent+chunk])
				sent += n
				chunk -= n
				if n == 0 {
					runtime.Gosched()
				}
			}
		}
	}()
	got := make([]byte, 0, total)
	buf := make([]byte, 313)
	for len(got) < total {
		n := r.TryRead(buf)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("stream corrupted through ring")
	}
}

// TestConnPipe moves a large random stream both ways through a Pipe pair
// concurrently.
func TestConnPipe(t *testing.T) {
	a, b := Pipe(512)
	defer a.Close()
	defer b.Close()
	const total = 1 << 19
	payload := make([]byte, total)
	rand.New(rand.NewSource(11)).Read(payload)
	check := func(w, r *Conn) chan error {
		errs := make(chan error, 1)
		go func() {
			if _, err := w.Write(payload); err != nil {
				errs <- err
				return
			}
			errs <- nil
		}()
		go func() {
			got := make([]byte, total)
			if _, err := io.ReadFull(r, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, payload) {
				errs <- io.ErrUnexpectedEOF
				return
			}
			errs <- nil
		}()
		return errs
	}
	e1 := check(a, b)
	e2 := check(b, a)
	for i := 0; i < 4; i++ {
		select {
		case err := <-e1:
			if err != nil {
				t.Fatal(err)
			}
		case err := <-e2:
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestConnCloseSemantics checks TCP-like teardown: buffered bytes remain
// readable after the peer closes, then EOF; writes to a closed conn fail.
func TestConnCloseSemantics(t *testing.T) {
	a, b := Pipe(512)
	if _, err := a.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got := make([]byte, 4)
	if _, err := io.ReadFull(b, got); err != nil || string(got) != "tail" {
		t.Fatalf("read after close = %q, %v", got, err)
	}
	if _, err := b.Read(got); err != io.EOF {
		t.Fatalf("read past close = %v, want EOF", err)
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to closed pipe succeeded")
	}
}

// TestConnReadRacingClose has the reader polling an empty ring while the
// peer writes its last bytes and closes at once: those bytes must always be
// read before EOF, however the close interleaves with the reader's drain.
func TestConnReadRacingClose(t *testing.T) {
	for i := 0; i < 300; i++ {
		a, b := Pipe(64)
		got := make(chan error, 1)
		go func() {
			buf := make([]byte, 3)
			_, err := io.ReadFull(b, buf)
			if err == nil && string(buf) != "end" {
				err = fmt.Errorf("read %q", buf)
			}
			got <- err
		}()
		runtime.Gosched()
		if _, err := a.Write([]byte("end")); err != nil {
			t.Fatal(err)
		}
		a.Close()
		if err := <-got; err != nil {
			t.Fatalf("iteration %d: last bytes lost to the close: %v", i, err)
		}
	}
}

// TestConnReadDeadline checks an expired deadline surfaces a timeout error
// and a cleared deadline restores blocking reads.
func TestConnReadDeadline(t *testing.T) {
	a, b := Pipe(512)
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := b.Read(buf)
	if nerr, ok := err.(interface{ Timeout() bool }); !ok || !nerr.Timeout() {
		t.Fatalf("read past deadline = %v, want timeout", err)
	}
	b.SetReadDeadline(time.Time{})
	go a.Write([]byte("k"))
	if _, err := io.ReadFull(b, buf); err != nil || buf[0] != 'k' {
		t.Fatalf("read after clearing deadline = %q, %v", buf, err)
	}
}

// TestRingPartialWrites checks the stream-mode accounting on one goroutine:
// a write into a nearly full ring takes only what fits, reads drain in
// order across the wrap, and an empty or full ring moves nothing.
func TestRingPartialWrites(t *testing.T) {
	r := NewRing(10)
	if n := r.TryRead(make([]byte, 4)); n != 0 {
		t.Fatalf("read from empty ring = %d, want 0", n)
	}
	if n := r.TryWrite([]byte("abcdefg")); n != 7 {
		t.Fatalf("first write = %d, want 7", n)
	}
	got := make([]byte, 5)
	if n := r.TryRead(got); n != 5 || string(got) != "abcde" {
		t.Fatalf("first read = %d %q", n, got)
	}
	// 2 bytes buffered, 8 free; this write wraps the data area.
	if n := r.TryWrite([]byte("hijklmnopq")); n != 8 {
		t.Fatalf("wrapping write = %d, want 8 (the free space)", n)
	}
	if r.Buffered() != 10 || r.Free() != 0 {
		t.Fatalf("full ring: buffered %d free %d", r.Buffered(), r.Free())
	}
	if n := r.TryWrite([]byte("x")); n != 0 {
		t.Fatalf("write into full ring = %d, want 0", n)
	}
	all := make([]byte, 16)
	n := r.TryRead(all)
	if string(all[:n]) != "fghijklmno" {
		t.Fatalf("drain after wrap = %q, want %q", all[:n], "fghijklmno")
	}
	if r.Buffered() != 0 || r.Free() != 10 {
		t.Fatalf("drained ring: buffered %d free %d", r.Buffered(), r.Free())
	}
}

// TestAttachRejectsBadSegment checks that Attach refuses segments too short
// for the header plus one data byte and segments not 8-byte aligned.
func TestAttachRejectsBadSegment(t *testing.T) {
	if _, err := Attach(make([]byte, MinSegment-1)); err == nil {
		t.Error("Attach accepted a segment shorter than MinSegment")
	}
	seg := NewSegment(MinSegment + 8)
	if _, err := Attach(seg[1:]); err == nil {
		t.Error("Attach accepted a misaligned segment")
	}
	if _, err := Attach(seg); err != nil {
		t.Errorf("Attach rejected an aligned segment: %v", err)
	}
}
