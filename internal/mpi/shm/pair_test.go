package shm

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestPairConnCrossMapped runs both ends of a mapped pair segment — the
// cross-process link, exercised here from two goroutines mapping the same
// file — and checks a bidirectional exchange.
func TestPairConnCrossMapped(t *testing.T) {
	if !MapAvailable() {
		t.Skip("cross-process segments unsupported on this platform")
	}
	path := filepath.Join(t.TempDir(), "pairseg")
	const ringBytes = 4096
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { // lower rank: creator
		defer wg.Done()
		conn, err := CreatePairConn(path, ringBytes, "shm:0", "shm:1")
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("from-lo")); err != nil {
			errs <- err
			return
		}
		got := make([]byte, 7)
		if err := readFull(conn, got); err != nil {
			errs <- err
			return
		}
		if string(got) != "from-hi" {
			errs <- fmt.Errorf("creator read %q", got)
			return
		}
		errs <- nil
	}()
	go func() { // higher rank: attacher
		defer wg.Done()
		conn, err := OpenPairConn(path, ringBytes, "shm:1", "shm:0", 5*time.Second)
		if err != nil {
			errs <- err
			return
		}
		defer conn.Close()
		got := make([]byte, 7)
		if err := readFull(conn, got); err != nil {
			errs <- err
			return
		}
		if string(got) != "from-lo" {
			errs <- fmt.Errorf("attacher read %q", got)
			return
		}
		if _, err := conn.Write([]byte("from-hi")); err != nil {
			errs <- err
			return
		}
		errs <- nil
	}()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// The creator's Close unlinked the segment file.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("segment file not removed: %v", err)
	}
}

// readFull fills buf from the conn.
func readFull(c *Conn, buf []byte) error {
	got := 0
	for got < len(buf) {
		n, err := c.Read(buf[got:])
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}
