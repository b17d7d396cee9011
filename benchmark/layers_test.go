package main

import (
	"testing"
)

// BenchmarkLedger drives every timed ledger row of layers.go under
// testing.B, one sub-benchmark per row, with allocation reporting:
//
//	go test -run '^$' -bench 'Ledger/(types|merkle)' -benchmem .
//
// The closures are the ones the traced run times; this is their second
// driver, not a second set of timers. Inputs come from the hot_point
// workload at the smoke size.
func BenchmarkLedger(b *testing.B) {
	l, err := newLayers(workloadByName("hot_point"), 1, SmokeSize, b.TempDir())
	if l != nil {
		defer l.Close()
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range l.Rows() {
		b.Run(row.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if row.Prep != nil {
					b.StopTimer()
					row.Prep()
					b.StartTimer()
				}
				row.Fn(i)
			}
		})
	}
}

// The ledger has a row for each layer ROADMAP item 1(d) lists.
func TestLedgerCoversTheListedLayers(t *testing.T) {
	l, err := newLayers(workloadByName("hot_point"), 1, SmokeSize, t.TempDir())
	if l != nil {
		defer l.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, row := range l.Rows() {
		if have[row.Name] {
			t.Errorf("row %s is defined twice", row.Name)
		}
		have[row.Name] = true
	}
	for _, name := range []string{
		"types.tx_decode_ns", "types.block_encode_us", "types.block_decode_us", "merkle.root_us",
		"index.bptree.range_us", "mbtree.range_vo_us", "cache.get_hit_ns", "cache.put_ns",
		"storage.read_block_us", "storage.read_block_z_us", "storage.read_tx_us", "storage.read_tx_z_us",
		"sqlparser.parse_us", "network.frame_us_per_kb",
	} {
		if !have[name] {
			t.Errorf("no ledger row %s", name)
		}
	}
}
