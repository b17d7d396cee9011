package layered

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"sebdb/internal/types"
)

// Run is one block's second level: §IV-B's bulk-loaded, never
// rebalanced B+-tree without the pointers, searched by bisection. It
// holds the block's distinct keys in types.Compare order, each once, and
// each key's positions in the order a stable sort of the entries leaves.
//
// The keys live in one of three columns, chosen by their kinds when the
// run is built. A numeric run bisects machine words, a string run
// bisects slices of one arena, and only a mixed run — or a bound no word
// can place — falls back to types.Compare on whole values. Every column
// gives each key back bit for bit.
type Run struct {
	col column

	// Numeric column: words[i] is key i's keyWord (0 for Null), kinds[i]
	// its kind and raw[i] its original 8 bytes — the Int or Timestamp, or
	// the Dec's float bits. raw is nil when every key's word and kind
	// give its bytes back, which is the case unless the run holds a -0
	// or an Int or Timestamp no float64 holds exactly.
	words []uint64
	kinds []types.Kind
	raw   []uint64

	// String column: key i is arena[ends[i]:ends[i+1]], after nulls
	// (0 or 1) leading Null keys with empty spans.
	nulls int
	arena string
	ends  []uint32

	// Mixed column.
	keys []types.Value

	offs []uint32 // key i's positions are pos[offs[i]:offs[i+1]]
	pos  []uint32
}

// column is the layout of a run's keys.
type column uint8

const (
	// numericCol: every key is Null, Int, Dec or Timestamp, and none is
	// a NaN, so types.Compare orders the keys as their floats do.
	numericCol column = iota
	// stringCol: every key is a string, after at most one Null.
	stringCol
	// mixedCol: anything else — a NaN, strings beside numbers, Bools.
	mixedCol
)

// newRun builds the run of a non-empty block. The keys' kinds choose
// the column and with it the sort, each a stable sort by types.Compare:
// a numeric run sorts (word, input index) pairs, a string run ranks its
// distinct strings and places the entries by rank, and only a mixed run
// sorts whole values with Compare. Input already in order — a checkpoint
// restores blocks that way — is found so without allocating and not
// sorted again. Neighbours merge only when identical to the bit: Dec(-0)
// and Dec(+0) compare equal but encode apart.
func newRun(entries []Entry) *Run {
	col := columnOf(entries)
	// order lists the entries in key order by input index; nil when the
	// input is in key order already.
	var order []uint32
	var sc *sortScratch
	switch col {
	case numericCol:
		if !wordsSorted(entries) {
			sc = scratchPool.Get().(*sortScratch)
			order = sc.byWord(entries)
		}
	case stringCol:
		if !stringsSorted(entries) {
			sc = scratchPool.Get().(*sortScratch)
			order = sc.byRank(entries)
		}
	default:
		byKey := func(a, b Entry) int { return types.Compare(a.Key, b.Key) }
		if !slices.IsSortedFunc(entries, byKey) {
			entries = slices.Clone(entries)
			slices.SortStableFunc(entries, byKey)
		}
	}
	at := func(j int) *Entry {
		if order != nil {
			return &entries[order[j]]
		}
		return &entries[j]
	}
	distinct, arena := 0, 0
	for j := 0; j < len(entries); j++ {
		k := at(j).Key
		if j > 0 && identical(at(j-1).Key, k) {
			continue
		}
		arena += len(k.S)
		distinct++
	}
	r := &Run{offs: make([]uint32, 0, distinct+1), pos: make([]uint32, len(entries))}
	var sb strings.Builder
	switch {
	case col == numericCol:
		r.words, r.kinds = make([]uint64, 0, distinct), make([]types.Kind, 0, distinct)
	case col == stringCol && uint64(arena) <= math.MaxUint32:
		r.col = stringCol
		r.ends = append(make([]uint32, 0, distinct+1), 0)
		sb.Grow(arena)
	default:
		r.col = mixedCol
		r.keys = make([]types.Value, 0, distinct)
	}
	for j := range entries {
		e := at(j)
		if j == 0 || !identical(at(j-1).Key, e.Key) {
			r.add(e.Key, &sb)
			r.offs = append(r.offs, uint32(j))
		}
		r.pos[j] = e.Pos
	}
	r.offs = append(r.offs, uint32(len(entries)))
	r.arena = sb.String()
	if sc != nil {
		sc.release()
	}
	return r
}

// columnOf returns the column the keys' kinds allow: numeric when every
// key is a wordKey, string when every key is a stringKey or Null, mixed
// otherwise. A string run may still go mixed when its arena would not
// fit a uint32 offset.
func columnOf(entries []Entry) column {
	numeric, text := true, true
	for i := range entries {
		k := &entries[i].Key
		numeric = numeric && wordKey(*k)
		text = text && (stringKey(*k) || *k == types.Null)
		if !numeric && !text {
			return mixedCol
		}
	}
	if numeric {
		return numericCol
	}
	return stringCol
}

// entryWord is a numeric-column key's word: 0 for Null, which sorts
// below every number.
func entryWord(k types.Value) uint64 {
	if k.Kind == types.KindNull {
		return 0
	}
	return keyWord(k.Float())
}

// wordsSorted reports whether the keys of a numeric column are in
// types.Compare order already, which is the order of their words.
func wordsSorted(entries []Entry) bool {
	prev := uint64(0)
	for i := range entries {
		w := entryWord(entries[i].Key)
		if w < prev {
			return false
		}
		prev = w
	}
	return true
}

// stringsSorted reports whether the keys of a string column are in
// types.Compare order already: the Nulls, then the strings in byte
// order.
func stringsSorted(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		a, b := &entries[i-1].Key, &entries[i].Key
		if b.Kind == types.KindNull && a.Kind != types.KindNull || a.Kind == types.KindString && b.Kind == types.KindString && a.S > b.S {
			return false
		}
	}
	return true
}

// sortScratch is the memory of one unsorted run's sort, pooled: a
// block's build runs on whichever worker reads it, and its scratch
// outlives nothing but the call.
type sortScratch struct {
	order []uint32
	pairs []wordPos
	ids   []uint32          // string column: each entry's name id
	names []string          // the distinct strings, by id
	slot  map[string]uint32 // name -> id, once names outgrow a linear scan
	rank  []uint32          // id -> rank, then rank -> next free slot
}

// wordPos is one numeric-column entry's sort key: its word, then its
// input index, which makes the sort stable.
type wordPos struct {
	w uint64
	i uint32
}

var scratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// release returns sc to the pool, dropping the strings it refers to so
// that a pooled scratch keeps no block's keys alive.
func (sc *sortScratch) release() {
	clear(sc.names)
	sc.names = sc.names[:0]
	clear(sc.slot)
	scratchPool.Put(sc)
}

// byWord returns the key order of a numeric column's entries.
func (sc *sortScratch) byWord(entries []Entry) []uint32 {
	sc.pairs = sc.pairs[:0]
	for i := range entries {
		sc.pairs = append(sc.pairs, wordPos{entryWord(entries[i].Key), uint32(i)})
	}
	slices.SortFunc(sc.pairs, func(a, b wordPos) int {
		if a.w != b.w {
			return cmp.Compare(a.w, b.w)
		}
		return cmp.Compare(a.i, b.i)
	})
	sc.order = sc.order[:0]
	for _, p := range sc.pairs {
		sc.order = append(sc.order, p.i)
	}
	return sc.order
}

// linearNames is how many distinct strings byRank looks up by a scan
// before it builds a map: a block's table names, a handful, never pay
// for hashing.
const linearNames = 8

// byRank returns the key order of a string column's entries: it gives
// each distinct string an id, ranks the ids by their strings, and places
// the entries by rank in input order — a stable counting sort. Nulls
// take rank 0, below every string.
func (sc *sortScratch) byRank(entries []Entry) []uint32 {
	sc.ids = sc.ids[:0]
	for i := range entries {
		k := &entries[i].Key
		if k.Kind == types.KindNull {
			sc.ids = append(sc.ids, 0)
			continue
		}
		sc.ids = append(sc.ids, sc.nameID(k.S))
	}
	// rank[id] is the id's rank, 1-based past the Nulls' 0.
	n := len(sc.names) + 1
	sc.rank = slices.Grow(sc.rank[:0], 2*n)[:2*n]
	byName := sc.rank[n:]
	for i := range byName[:n-1] {
		byName[i] = uint32(i)
	}
	slices.SortFunc(byName[:n-1], func(a, b uint32) int { return strings.Compare(sc.names[a], sc.names[b]) })
	sc.rank[0] = 0
	for r, id := range byName[:n-1] {
		sc.rank[id+1] = uint32(r + 1)
	}
	// Count per rank, then turn the counts into each rank's first slot.
	count := byName[:n]
	clear(count)
	for _, id := range sc.ids {
		count[sc.rank[id]]++
	}
	next := uint32(0)
	for r, c := range count {
		count[r] = next
		next += c
	}
	sc.order = slices.Grow(sc.order[:0], len(entries))[:len(entries)]
	for i, id := range sc.ids {
		r := sc.rank[id]
		sc.order[count[r]] = uint32(i)
		count[r]++
	}
	return sc.order
}

// nameID returns the id of string s, 1-based, adding it when new.
func (sc *sortScratch) nameID(s string) uint32 {
	if len(sc.names) > linearNames {
		id, ok := sc.slot[s]
		if !ok {
			sc.names = append(sc.names, s)
			id = uint32(len(sc.names))
			sc.slot[s] = id
		}
		return id
	}
	for j, name := range sc.names {
		if name == s {
			return uint32(j + 1)
		}
	}
	sc.names = append(sc.names, s)
	if len(sc.names) > linearNames {
		if sc.slot == nil {
			sc.slot = make(map[string]uint32)
		}
		for j, name := range sc.names {
			sc.slot[name] = uint32(j + 1)
		}
	}
	return uint32(len(sc.names))
}

// wordKey reports whether k can live in a numeric column: Null, or an
// Int, Dec or Timestamp that is not a NaN, with no stray bits in the
// fields its kind leaves unused.
func wordKey(k types.Value) bool {
	switch k.Kind {
	case types.KindNull:
		return k == types.Null
	case types.KindInt, types.KindTimestamp:
		return k.S == "" && math.Float64bits(k.F) == 0
	case types.KindDecimal:
		return k.S == "" && k.I == 0 && k.F == k.F
	}
	return false
}

// stringKey reports whether k can live in a string column: a string
// with no stray bits in the fields its kind leaves unused.
func stringKey(k types.Value) bool {
	return k.Kind == types.KindString && k.I == 0 && math.Float64bits(k.F) == 0
}

// add appends the next distinct key to r's column.
func (r *Run) add(k types.Value, sb *strings.Builder) {
	switch r.col {
	case numericCol:
		w := uint64(0)
		if k.Kind != types.KindNull {
			w = keyWord(k.Float())
		}
		b := rawBits(k)
		if r.raw == nil && wordBits(k.Kind, w) != b {
			r.raw = make([]uint64, len(r.words), cap(r.words))
			for i, w := range r.words {
				r.raw[i] = wordBits(r.kinds[i], w)
			}
		}
		if r.raw != nil {
			r.raw = append(r.raw, b)
		}
		r.words = append(r.words, w)
		r.kinds = append(r.kinds, k.Kind)
	case stringCol:
		if k.Kind == types.KindNull {
			r.nulls = 1
		}
		sb.WriteString(k.S)
		r.ends = append(r.ends, uint32(sb.Len()))
	default:
		r.keys = append(r.keys, k)
	}
}

func identical(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// keyWord maps a non-NaN float to a machine word in the same order: the
// IEEE-754 sign flip, with -0 folded into +0 so that floats comparing
// equal share a word. Only NaNs map to 0 and to ^0, which leaves 0 to
// Null and ^0 to bounds above every number.
func keyWord(f float64) uint64 {
	if f == 0 {
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// wordFloat inverts keyWord, giving +0 for the word of -0: it clears
// the top bit of a word that has it and flips every bit of one that
// does not.
func wordFloat(w uint64) float64 {
	return math.Float64frombits(w ^ (^uint64(int64(w)>>63) | 1<<63))
}

// rawBits returns the 8 bytes a numeric-column key carries: an Int's or
// Timestamp's integer, a Dec's float bits, nothing for Null.
func rawBits(k types.Value) uint64 {
	switch k.Kind {
	case types.KindDecimal:
		return math.Float64bits(k.F)
	case types.KindInt, types.KindTimestamp:
		return uint64(k.I)
	}
	return 0
}

// wordBits returns the raw bits a key of kind k and word w carries when
// its word gives them back exactly.
func wordBits(k types.Kind, w uint64) uint64 {
	switch k {
	case types.KindDecimal:
		return math.Float64bits(wordFloat(w))
	case types.KindInt, types.KindTimestamp:
		return uint64(int64(wordFloat(w)))
	}
	return 0
}

// keyCount returns the number of distinct keys.
func (r *Run) keyCount() int { return len(r.offs) - 1 }

// key returns distinct key i as it was appended.
func (r *Run) key(i int) types.Value {
	switch r.col {
	case numericCol:
		b := wordBits(r.kinds[i], r.words[i])
		if r.raw != nil {
			b = r.raw[i]
		}
		switch k := r.kinds[i]; k {
		case types.KindDecimal:
			return types.Value{Kind: k, F: math.Float64frombits(b)}
		case types.KindNull:
			return types.Null
		default:
			return types.Value{Kind: k, I: int64(b)}
		}
	case stringCol:
		if i < r.nulls {
			return types.Null
		}
		return types.Str(r.str(i))
	default:
		return r.keys[i]
	}
}

func (r *Run) str(i int) string { return r.arena[r.ends[i]:r.ends[i+1]] }

// span returns the keys [i, j) with lo <= key <= hi.
func (r *Run) span(lo, hi types.Value) (i, j int) {
	switch r.col {
	case numericCol:
		wl, okl := boundWord(lo)
		wh, okh := boundWord(hi)
		if okl && okh {
			i = searchWords(r.words, wl, false)
			return i, i + searchWords(r.words[i:], wh, true)
		}
	case stringCol:
		i = r.searchStrings(lo, false)
		return i, max(i, r.searchStrings(hi, true))
	}
	n := r.keyCount()
	i = sort.Search(n, func(k int) bool { return types.Compare(r.key(k), lo) >= 0 })
	return i, i + sort.Search(n-i, func(k int) bool { return types.Compare(r.key(i+k), hi) > 0 })
}

// boundWord places a query bound among the words of a numeric run: a
// key compares with v as its word does with the result. ok is false
// when no word can stand for v: a NaN.
func boundWord(v types.Value) (w uint64, ok bool) {
	switch {
	case v.Kind == types.KindNull:
		return 0, true
	case v.Numeric():
		f := v.Float()
		return keyWord(f), f == f
	case v.Kind < types.KindInt:
		return 1, true // above Null, below every number
	}
	return math.MaxUint64, true // a Bool or exec's past-the-end sentinel
}

// searchWords returns the number of words below w or, with orEqual,
// not above it.
func searchWords(ws []uint64, w uint64, orEqual bool) int {
	i, j := 0, len(ws)
	for i < j {
		h := int(uint(i+j) >> 1)
		if ws[h] < w || orEqual && ws[h] == w {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// searchStrings returns the number of a string run's keys below v or,
// with orEqual, not above it. Every kind but Null and String sorts above
// all strings by its tag.
func (r *Run) searchStrings(v types.Value, orEqual bool) int {
	switch v.Kind {
	case types.KindNull:
		if orEqual {
			return r.nulls
		}
		return 0
	case types.KindString:
	default:
		return r.keyCount()
	}
	i, j := r.nulls, r.keyCount()
	for i < j {
		h := int(uint(i+j) >> 1)
		if c := strings.Compare(r.str(h), v.S); c < 0 || orEqual && c == 0 {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// positions returns the positions of the entries with lo <= key <= hi,
// in key order: the run's own memory, not to be modified.
func (r *Run) positions(lo, hi types.Value) []uint32 {
	i, j := r.span(lo, hi)
	return r.pos[r.offs[i]:r.offs[j]]
}

// Range calls fn for every entry with lo <= key <= hi, in key order;
// returning false stops early.
func (r *Run) Range(lo, hi types.Value, fn func(key types.Value, ref uint64) bool) {
	i, j := r.span(lo, hi)
	r.each(i, j, fn)
}

// each calls fn for the entries of keys [i, j), in key order, until fn
// returns false. A Dec its word gives back, the common key, is decoded
// here rather than through a call to key.
func (r *Run) each(i, j int, fn func(key types.Value, ref uint64) bool) {
	words := r.col == numericCol && r.raw == nil
	for ; i < j; i++ {
		var k types.Value
		if words && r.kinds[i] == types.KindDecimal {
			k = types.Value{Kind: types.KindDecimal, F: wordFloat(r.words[i])}
		} else {
			k = r.key(i)
		}
		for _, p := range r.pos[r.offs[i]:r.offs[i+1]] {
			if !fn(k, uint64(p)) {
				return
			}
		}
	}
}
