package network

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindSQL, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFrame(&buf)
	if err != nil || kind != KindSQL || string(payload) != "payload" {
		t.Errorf("frame = %d %q %v", kind, payload, err)
	}
	// Empty payload.
	WriteFrame(&buf, KindHeight, nil)
	kind, payload, err = ReadFrame(&buf)
	if err != nil || kind != KindHeight || len(payload) != 0 {
		t.Errorf("empty frame = %d %q %v", kind, payload, err)
	}
	// Truncated stream.
	short := bytes.NewReader([]byte{1, 0, 0, 0, 10, 1, 2})
	if _, _, err := ReadFrame(short); err == nil {
		t.Error("truncated frame accepted")
	}
	// Oversized declared length.
	huge := bytes.NewReader([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(huge); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestServerClientOverTCP(t *testing.T) {
	srv := NewServer()
	srv.Handle(KindHeight, func(p []byte) ([]byte, error) {
		return []byte("42"), nil
	})
	srv.Handle(KindSQL, func(p []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Call(KindHeight, nil)
	if err != nil || string(resp) != "42" {
		t.Errorf("call = %q, %v", resp, err)
	}
	// Handler error becomes a client error.
	if _, err := cl.Call(KindSQL, []byte("x")); err == nil || err.Error() != "boom" {
		t.Errorf("error propagation: %v", err)
	}
	// Unregistered kind.
	if _, err := cl.Call(KindAuthQuery, nil); err == nil {
		t.Error("unregistered kind accepted")
	}
	// Concurrent calls are serialised safely.
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r, err := cl.Call(KindHeight, nil); err != nil || string(r) != "42" {
				t.Errorf("concurrent call failed: %v", err)
			}
		}()
	}
	wg.Wait()
}
