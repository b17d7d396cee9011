package snapshot

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"sebdb/internal/types"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeCheckpointLog feeds arbitrary bytes to the checkpoint log
// decoder — the file a crash or a bad disk leaves behind. It must never panic and never allocate
// beyond a multiple of the input (every count is held to the bytes that
// remain before anything is allocated for it); whatever it accepts must
// survive decode∘encode unchanged, as one whole-state frame. The frame
// encoding is canonical, so "unchanged" is byte equality of the two
// encodings — which also holds a NaN key equal to itself. The frame
// CRC keeps a mutator from reaching the structural checks, so the input
// is also offered as a bare frame payload, behind the CRC.
func FuzzDecodeCheckpointLog(f *testing.F) {
	s := buildChain(7)
	whole := mkCheckpoint(s).Encode()
	first, second, third := mkWindow(s, 0, 3).Encode(), mkWindow(s, 3, 4).Encode(), mkWindow(s, 4, 7).Encode()
	log := bytes.Join([][]byte{first, second, third}, nil)
	f.Add(whole)
	f.Add(log)
	f.Add(log[:len(log)-9])                             // a torn last frame
	f.Add(bytes.Join([][]byte{first, third}, nil))      // a gap: must be refused
	f.Add(bytes.Join([][]byte{first, first}, nil))      // a repeat: must be refused
	f.Add(second)                                       // a log starting at block 3: must be refused
	f.Add(whole[frameHeader : len(whole)-frameTrailer]) // a bare payload, for the second door
	f.Add(third[frameHeader : len(third)-frameTrailer])
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/3] ^= 1
	f.Add(flipped)
	f.Add([]byte{0x5E, 0xBD, 0xC4, 0xB8, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // a frame claiming 4 GiB

	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(256*len(data) + 1<<16)
		var c *Checkpoint
		var err error
		if n := allocated(func() { c, err = Decode(data) }); n > limit {
			t.Fatalf("a %d-byte log made the decoder allocate %d bytes", len(data), n)
		}
		if err == nil {
			if c.Lo != 0 || c.Height == 0 || c.Prev != (types.Hash{}) {
				t.Fatalf("accepted a log that is not a whole state: [%d,%d) after %x", c.Lo, c.Height, c.Prev)
			}
			for _, st := range append(slices.Clone(c.Indexes), c.ALIs...) {
				if uint64(len(st.Blocks)) != c.Height {
					t.Fatalf("accepted a log whose index %q covers %d of %d blocks", st.Key, len(st.Blocks), c.Height)
				}
			}
			enc := c.Encode()
			again, err := Decode(enc)
			if err != nil {
				t.Fatalf("the re-encoding of an accepted log is refused: %v", err)
			}
			if !bytes.Equal(again.Encode(), enc) {
				t.Fatal("decode∘encode changed an accepted checkpoint")
			}
		}
		var w *Checkpoint
		if n := allocated(func() { w, err = decodeFrame(data) }); n > limit {
			t.Fatalf("a %d-byte frame payload made the decoder allocate %d bytes", len(data), n)
		}
		if err == nil {
			enc := w.Encode()
			again, err := decodeFrame(enc[frameHeader : len(enc)-frameTrailer])
			if err != nil || !bytes.Equal(again.Encode(), enc) {
				t.Fatalf("decode∘encode changed an accepted frame (err %v)", err)
			}
		}
	})
}
