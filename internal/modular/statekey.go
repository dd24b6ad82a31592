package modular

import (
	"math"
	"math/bits"
)

// keyLayout packs a state vector into fixed-width uint64 words. Variable i
// stores st[i]-Min in bits.Len64(Max-Min) bits at fields[i].shift of word
// fields[i].word; a variable never straddles two words, so any number of
// variables of any declared range packs the same way. Two in-range states
// are equal exactly when their packed keys are, and bits no variable owns
// stay zero.
type keyLayout struct {
	words  int
	fields []keyField
}

// keyField is where one variable lives in a packed key.
type keyField struct {
	word  int
	shift uint
	min   int
	span  uint64 // Max-Min
	mask  uint64 // the variable's bits within its word
}

func newKeyLayout(vars []VarDecl) keyLayout {
	l := keyLayout{words: 1, fields: make([]keyField, len(vars))}
	used := uint(0) // bits taken in the current word
	for i, d := range vars {
		span := uint64(d.Max) - uint64(d.Min)
		width := uint(bits.Len64(span))
		if used+width > 64 {
			l.words++
			used = 0
		}
		mask := ^uint64(0) >> (64 - width) << used // 0 when width is 0
		l.fields[i] = keyField{word: l.words - 1, shift: used, min: d.Min, span: span, mask: mask}
		used += width
	}
	return l
}

// pack writes the key of st into key (len l.words) and reports whether st
// has the model's length and every value lies in its declared range.
func (l *keyLayout) pack(st []int, key []uint64) bool {
	clear(key)
	if len(st) != len(l.fields) {
		return false
	}
	for i, v := range st {
		f := &l.fields[i]
		// Unsigned wrap-around maps every out-of-range value above span.
		d := uint64(v) - uint64(f.min)
		if d > f.span {
			return false
		}
		key[f.word] |= d << f.shift
	}
	return true
}

// decode writes the state vector of key into st (len of the layout's
// variables): the inverse of pack.
func (l *keyLayout) decode(key []uint64, st []int) {
	st = st[:len(l.fields)]
	for i := range l.fields {
		f := &l.fields[i]
		st[i] = f.min + int((key[f.word]&f.mask)>>f.shift)
	}
}

// set rewrites variable i of key to v, leaving every other variable as it
// is, so the result equals pack of the modified vector. When v lies outside
// the variable's range it reports false and leaves key untouched.
func (l *keyLayout) set(key []uint64, i, v int) bool {
	f := &l.fields[i]
	d := uint64(v) - uint64(f.min)
	if d > f.span {
		return false
	}
	key[f.word] = key[f.word]&^f.mask | d<<f.shift
	return true
}

// stateIndex maps packed keys to state numbers with an open-addressed,
// linearly probed table. keys[s*words:(s+1)*words] is the key of state s
// and the only per-state storage: a state's vector is decoded from its key
// on demand. A slot holds s+1, or 0 when empty. The table stays at most
// half full.
type stateIndex struct {
	layout keyLayout
	keys   []uint64
	slots  []int32
	shift  uint // 64 - log2(len(slots))
}

// maxIndexedStates is the largest state count an int32 slot can number.
const maxIndexedStates = math.MaxInt32 - 1

func newStateIndex(vars []VarDecl) *stateIndex {
	x := &stateIndex{layout: newKeyLayout(vars)}
	x.resize(1 << 10)
	return x
}

// len returns the number of indexed states.
func (x *stateIndex) len() int { return len(x.keys) / x.layout.words }

// key returns the packed key of state s, a view into the index.
func (x *stateIndex) key(s int) []uint64 {
	w := x.layout.words
	return x.keys[s*w : (s+1)*w : (s+1)*w]
}

func (x *stateIndex) home(key []uint64) int {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range key {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return int((h * 0x94d049bb133111eb) >> x.shift)
}

// find returns the state number of key, or -1 with the empty slot where
// insert should place it.
func (x *stateIndex) find(key []uint64) (state, slot int) {
	w := x.layout.words
	mask := len(x.slots) - 1
	for slot = x.home(key); ; slot = (slot + 1) & mask {
		s := int(x.slots[slot]) - 1
		if s < 0 {
			return -1, slot
		}
		if keysEqual(x.keys[s*w:(s+1)*w], key) {
			return s, slot
		}
	}
}

// insert numbers key as the next state, placing it in slot (from find).
func (x *stateIndex) insert(slot int, key []uint64) int {
	s := x.len()
	x.keys = append(grow(x.keys, len(key)), key...)
	x.slots[slot] = int32(s + 1)
	if 2*(s+1) > len(x.slots) {
		x.resize(2 * len(x.slots))
	}
	return s
}

func (x *stateIndex) resize(n int) {
	x.slots = make([]int32, n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for s := 0; s < x.len(); s++ {
		_, slot := x.find(x.key(s))
		x.slots[slot] = int32(s + 1)
	}
}

func keysEqual(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the state number of st, or -1 when st is not indexed. It
// only reads the index, so concurrent lookups are safe, and keys of up to
// four words are packed on the stack.
func (x *stateIndex) lookup(st []int) int {
	var buf [4]uint64
	key := buf[:]
	if x.layout.words > len(buf) {
		key = make([]uint64, x.layout.words)
	}
	key = key[:x.layout.words]
	if !x.layout.pack(st, key) {
		return -1
	}
	s, _ := x.find(key)
	return s
}
