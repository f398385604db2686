package merge

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/blockio"
	"repro/internal/ctt"
	"repro/internal/encpool"
	"repro/internal/obs"
	ftrace "repro/internal/obs/trace"
	"repro/internal/rankset"
	"repro/internal/timestat"
)

// Selective decode with projection pushdown. The v1 encoding interleaves the
// (tiny) structure stream — header, CST, rank sets — with the (large) per-entry
// VData timing payloads, so even a single-rank query historically paid a
// full-tree payload decode. DecodeSelect pushes the rank projection into the
// decoder: structure decodes fully, but a payload section is materialized only
// when its entry's rank set intersects the selection; everything else is
// recorded as a byte range against the retained encoding and filled lazily on
// first touch.
//
// The section index that makes skipping O(1) per entry is a versioned sidecar
// appended AFTER the complete v1 body (see EncodeIndexed), so indexed files
// remain bit-compatible with every existing decoder: raw and gzip streams have
// always tolerated trailing bytes, and the golden pins cover the body bytes
// unchanged. Index-less encodings still decode selectively — the skip offsets
// are derived with an allocation-free grammar walk over the raw bytes.

// Selection names the ranks a selective decode must materialize payloads for.
// The zero value selects nothing (structure-only decode).
type Selection struct {
	all   bool
	ranks []int // sorted, deduplicated
}

// SelectAll selects every rank: DecodeSelect materializes all payloads
// eagerly, matching a full Decode.
func SelectAll() Selection { return Selection{all: true} }

// SelectRanks selects the given ranks. With no arguments the selection is
// empty and DecodeSelect decodes structure only, leaving every payload lazy.
func SelectRanks(ranks ...int) Selection {
	rs := append([]int(nil), ranks...)
	sort.Ints(rs)
	n := 0
	for i, r := range rs {
		if i == 0 || r != rs[n-1] {
			rs[n] = r
			n++
		}
	}
	return Selection{ranks: rs[:n]}
}

// All reports whether the selection covers every rank.
func (s Selection) All() bool { return s.all }

// Ranks returns the selected ranks, sorted and deduplicated (nil when All).
func (s Selection) Ranks() []int { return append([]int(nil), s.ranks...) }

// Contains reports whether rank is selected.
func (s Selection) Contains(rank int) bool {
	if s.all {
		return true
	}
	i := sort.SearchInts(s.ranks, rank)
	return i < len(s.ranks) && s.ranks[i] == rank
}

// matches reports whether any selected rank is a member of set.
func (s Selection) matches(set *rankset.Set) bool {
	if s.all {
		return true
	}
	for _, r := range s.ranks {
		if set.Contains(r) {
			return true
		}
	}
	return false
}

// The sidecar layout:
//
//	"CYPI"  u(version=1)  u(entryCount)  entryCount x u(vdataLen)
//	u32le(sidecar length from magic through last varint)  "IPYC"
//
// The fixed 8-byte trailer makes the index discoverable from the END of the
// encoding, so DecodeSelect needs no body length up front; the validation in
// parseIndex (magic, version, length walk landing exactly on the trailer)
// makes body bytes that merely end in "IPYC" fail closed into the index-less
// path rather than misparse.
var (
	indexMagic   = [4]byte{'C', 'Y', 'P', 'I'}
	indexTrailer = [4]byte{'I', 'P', 'Y', 'C'}
)

const indexVersion = 1

// appendIndex serializes the section-index sidecar for the given per-entry
// VData section lengths.
func appendIndex(dst []byte, lens []uint64) []byte {
	start := len(dst)
	dst = append(dst, indexMagic[:]...)
	dst = binary.AppendUvarint(dst, indexVersion)
	dst = binary.AppendUvarint(dst, uint64(len(lens)))
	for _, l := range lens {
		dst = binary.AppendUvarint(dst, l)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start))
	return append(dst, indexTrailer[:]...)
}

// parseIndex validates and reads a CYPI sidecar anchored at the end of enc,
// returning the per-entry section lengths and the offset where the v1 body
// ends. ok is false when enc carries no (valid) sidecar, in which case
// bodyEnd is len(enc).
func parseIndex(enc []byte) (lens []uint64, bodyEnd int, ok bool) {
	n := len(enc)
	const trailer = 8 // u32le sidecar length + "IPYC"
	const minSidecar = 6
	if n < trailer+minSidecar {
		return nil, n, false
	}
	if [4]byte(enc[n-4:]) != indexTrailer {
		return nil, n, false
	}
	sideLen := int(binary.LittleEndian.Uint32(enc[n-trailer : n-4]))
	start := n - trailer - sideLen
	if sideLen < minSidecar || start < 0 {
		return nil, n, false
	}
	if [4]byte(enc[start:start+4]) != indexMagic {
		return nil, n, false
	}
	c := &bcur{b: enc[:n-trailer], off: start + 4}
	if v := c.u(); c.err != nil || v != indexVersion {
		return nil, n, false
	}
	cnt := c.u()
	// Each length costs at least one byte, so a valid count is bounded by the
	// sidecar itself — a hostile count cannot force a large allocation.
	if c.err != nil || cnt > uint64(sideLen) {
		return nil, n, false
	}
	lens = make([]uint64, cnt)
	for i := range lens {
		lens[i] = c.u()
	}
	if c.err != nil || c.off != n-trailer {
		return nil, n, false
	}
	return lens, start, true
}

// HasSectionIndex reports whether enc (a bare CYPR payload, container already
// unwrapped) carries a valid CYPI section-index sidecar.
func HasSectionIndex(enc []byte) bool {
	_, _, ok := parseIndex(enc)
	return ok
}

// EncodeIndexed writes the merged tree as a standard v1 encoding followed by
// the CYPI section index and returns the total byte count. The body bytes are
// identical to Encode's output, so existing decoders read indexed files
// unchanged (the sidecar rides in the historical trailing-bytes tolerance of
// raw and gzip streams); DecodeSelect uses the index to skip unselected
// payload sections in O(1) instead of walking their grammar. Indexed output
// composes with gzip (EncodeIndexedGzip) but not with the CYPB block
// container, whose footer index already pins the framed payload length.
func (m *Merged) EncodeIndexed(out io.Writer) (int64, error) {
	var lens []uint64
	n, err := m.encode(out, &lens)
	if err != nil {
		return 0, err
	}
	side := appendIndex(nil, lens)
	if _, err := out.Write(side); err != nil {
		return 0, err
	}
	return n + int64(len(side)), nil
}

// EncodeIndexedGzip is EncodeIndexed wrapped in a gzip member, mirroring
// EncodeGzip.
func (m *Merged) EncodeIndexedGzip(out io.Writer) (int64, error) {
	cw := &countingWriter{w: out}
	gz := encpool.GetGzip(cw)
	defer encpool.PutGzip(gz)
	if _, err := m.EncodeIndexed(gz); err != nil {
		return 0, err
	}
	if err := gz.Close(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// lazySlot is one unmaterialized payload: the byte range of its VData section
// within the retained encoding, and the record GID its vertex stamps.
type lazySlot struct {
	start, end int64
	gid        int32 // GID stamped on the section's records (see recordGID)
}

// lazyPayloads is the decoder-owned arena behind a selectively decoded tree:
// the retained body bytes, one slot per skipped entry, and the fill decoder
// whose slabs every on-demand fill is carved from.
type lazyPayloads struct {
	body  []byte // enc[:bodyEnd]; aliases DecodeSelect's input
	mode  timestat.Mode
	slots []lazySlot
	// filled publishes completed fills; entryData's fast path is one atomic
	// load, so concurrent replay over a projected tree stays lock-free after
	// first touch.
	filled []atomic.Pointer[ctt.VData]

	mu  sync.Mutex
	dec decoder // fill decoder, guarded by mu (fills share its slabs)
}

// fill decodes slot's payload section on first touch and publishes it.
func (lp *lazyPayloads) fill(slot int) (*ctt.VData, error) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if vd := lp.filled[slot].Load(); vd != nil {
		return vd, nil
	}
	s := lp.slots[slot]
	br := bytes.NewReader(lp.body[s.start:s.end])
	d := &lp.dec
	d.reader = reader{r: br} // resets the latched error from any prior fill
	vd := d.vdata()
	d.decodeVData(vd, lp.mode, s.gid)
	if d.err != nil {
		return nil, fmt.Errorf("merge: lazy payload fill: %w", d.err)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("merge: lazy payload fill: %d trailing bytes in section", br.Len())
	}
	if sink.Enabled() {
		sink.Inc(obs.SelLazyFills)
		sink.Add(obs.SelLazyFillBytes, s.end-s.start)
	}
	rec.Instant(ftrace.CatCodec, ftrace.NameLazyFill, 0, int64(slot), s.end-s.start)
	lp.filled[slot].Store(vd)
	return vd, nil
}

// entryData returns e's payload, filling it from the retained encoding on
// first touch when the tree was decoded selectively. The fast paths — an
// eagerly decoded entry, or a lazy entry already filled — are a field check
// plus at most one atomic load, so replay loops stay allocation-free.
func (m *Merged) entryData(e *Entry) (*ctt.VData, error) {
	if e.lazy == 0 {
		return e.Data, nil
	}
	slot := int(e.lazy - 1)
	if vd := m.lazy.filled[slot].Load(); vd != nil {
		return vd, nil
	}
	return m.lazy.fill(slot)
}

// Materialize fills every unmaterialized payload of a selectively decoded
// tree and publishes each into its Entry.Data, after which the tree behaves
// exactly like a full Decode. It is NOT safe to call concurrently with
// readers of the same tree (Entry.Data is plain-written); Encode and Pair,
// which call it implicitly, already require exclusive access. Concurrent
// replay never needs it — the Streamer routes through entryData's atomic
// path. On a fully decoded tree Materialize returns immediately.
func (m *Merged) Materialize() error {
	if m.lazy == nil {
		return nil
	}
	for gid := range m.Entries {
		es := m.Entries[gid]
		for i := range es {
			if es[i].lazy == 0 || es[i].Data != nil {
				continue
			}
			vd, err := m.entryData(&es[i])
			if err != nil {
				return err
			}
			es[i].Data = vd
		}
	}
	return nil
}

// skipVData walks one entry's VData section over the raw bytes without
// decoding it, mirroring decodeVData's grammar and plausibility caps, so the
// index-less selective path can derive section boundaries as it goes.
func skipVData(c *bcur, hist bool) {
	c.skipRuns() // loop counts
	c.skipRuns() // taken branches
	nc := c.u()
	if c.err != nil {
		return
	}
	if nc > 1<<24 {
		c.fail("merge: implausible cycle count %d", nc)
		return
	}
	for j := uint64(0); j < nc && c.err == nil; j++ {
		c.u()
		c.u()
		c.u()
	}
	nr := c.u()
	if c.err != nil {
		return
	}
	if nr > 1<<26 {
		c.fail("merge: implausible record count %d", nr)
		return
	}
	for j := uint64(0); j < nr && c.err == nil; j++ {
		c.skipRecordStructure()
		skipVolatile(c, hist)
	}
}

// DecodeSelect decodes the standalone encoding enc (bare CYPR or CYPR+CYPI,
// container already unwrapped — see DecodeSelectAuto) with the rank
// projection sel pushed into the decoder. The structure stream is decoded
// fully, but a timing payload is materialized only when its entry's rank set
// intersects sel; every other entry records its payload's byte range and is
// filled lazily on first touch through entryData. The returned tree therefore
// retains enc — the caller must not modify it afterwards.
//
// Skipped sections are validated for framing only; their contents are
// re-validated when (if ever) they are filled, so a projected decode of a
// corrupt file can surface the corruption at replay time rather than decode
// time. Any failure in the selective walk itself — including index-less
// inputs whose grammar walk trips — falls back to a plain full Decode of the
// same bytes, so DecodeSelect succeeds on everything Decode succeeds on.
func DecodeSelect(enc []byte, sel Selection) (*Merged, error) {
	m, err := decodeSelect(enc, sel)
	if err == nil {
		return m, nil
	}
	sink.Inc(obs.SelFallbacks)
	return Decode(bytes.NewReader(enc))
}

// DecodeSelectAuto is DecodeSelect over a trace file held in memory in any
// container cypresstrace writes: bare CYPR, gzip, or the CYPB block container
// (unwrapped via blockio; workers as in DecodePar). Containered inputs pay
// one unwrap into a fresh payload buffer; bare input is served zero-copy.
func DecodeSelectAuto(data []byte, sel Selection, workers int) (*Merged, error) {
	if workers == 0 {
		workers = defaultIOWorkers()
	}
	payload, _, err := blockio.Unwrap(data, workers)
	if err != nil {
		return nil, err
	}
	return DecodeSelect(payload, sel)
}

// decodeSelect is the selective path proper: any error falls back to a full
// decode in DecodeSelect.
func decodeSelect(enc []byte, sel Selection) (*Merged, error) {
	sp := sink.Start(obs.StageDecode)
	defer sp.End()
	tsp := rec.Begin(ftrace.CatCodec, ftrace.NameDecodeSelect, 0)
	lens, bodyEnd, indexed := parseIndex(enc)
	body := enc[:bodyEnd]
	br := bytes.NewReader(body)
	d := &decoder{reader: reader{r: br}}
	m, mode, err := d.decodeHeader()
	if err != nil {
		return nil, err
	}
	hist := mode == timestat.ModeHistogram
	pos := func() int64 { return int64(len(body) - br.Len()) }
	lz := &lazyPayloads{body: body, mode: mode}
	if indexed {
		// The index bounds the slot count up front; without it the slice
		// grows with the skip walk.
		lz.slots = make([]lazySlot, 0, len(lens))
	}
	var eager, skipped int64   // entries
	var eagerB, skippedB int64 // payload bytes
	li := 0
	for gid := range m.Entries {
		n := d.u()
		if d.err != nil {
			return nil, fmt.Errorf("merge: vertex %d: %w", gid, d.err)
		}
		if n > 1<<24 {
			return nil, fmt.Errorf("merge: vertex %d: implausible entry count %d", gid, n)
		}
		if n == 0 {
			continue
		}
		recGID := recordGID(m.Tree, gid)
		var es []Entry
		if n > decodeEager {
			es = make([]Entry, 0, decodeEager)
		}
		decoded := 0
		for rem := n; rem > 0; {
			b := umin(rem, decodeEager)
			chunk := d.entries(int(b))
			for k := range chunk {
				e := &chunk[k]
				e.Ranks.Load(d.setRuns())
				if d.err != nil {
					return nil, fmt.Errorf("merge: vertex %d entry %d: %w", gid, decoded+k, d.err)
				}
				start := pos()
				sectionLen := int64(-1)
				if indexed {
					if li >= len(lens) {
						return nil, fmt.Errorf("merge: section index lists %d entries, stream has more", len(lens))
					}
					sectionLen = int64(lens[li])
					li++
					if sectionLen < 0 || start+sectionLen > int64(len(body)) {
						return nil, fmt.Errorf("merge: section index length %d overruns body", sectionLen)
					}
				}
				if sel.matches(e.Ranks) {
					e.Data = d.vdata()
					d.decodeVData(e.Data, mode, recGID)
					if d.err != nil {
						return nil, fmt.Errorf("merge: vertex %d entry %d: %w", gid, decoded+k, d.err)
					}
					got := pos() - start
					if sectionLen >= 0 && got != sectionLen {
						return nil, fmt.Errorf("merge: section index length %d disagrees with decoded section (%d bytes)", sectionLen, got)
					}
					eager++
					eagerB += got
					continue
				}
				var end int64
				if sectionLen >= 0 {
					end = start + sectionLen
				} else {
					// Index-less input: derive the section boundary with a
					// grammar walk over the raw bytes.
					c := &bcur{b: body, off: int(start)}
					skipVData(c, hist)
					if c.err != nil {
						return nil, fmt.Errorf("merge: vertex %d entry %d: %w", gid, decoded+k, c.err)
					}
					end = int64(c.off)
				}
				if _, err := br.Seek(end, io.SeekStart); err != nil {
					return nil, err
				}
				lz.slots = append(lz.slots, lazySlot{start: start, end: end, gid: recGID})
				e.lazy = int32(len(lz.slots))
				skipped++
				skippedB += end - start
			}
			if es == nil {
				es = chunk
			} else {
				es = append(es, chunk...)
			}
			decoded += int(b)
			rem -= b
		}
		m.Entries[gid] = es
		d.nEnt += int64(n)
	}
	if indexed {
		// The index is trusted for seeks, so it must agree with the stream
		// exactly; mismatches fall back to the full decode.
		if li != len(lens) {
			return nil, fmt.Errorf("merge: section index lists %d entries, stream has %d", len(lens), li)
		}
		if pos() != int64(len(body)) {
			return nil, fmt.Errorf("merge: %d stray bytes between entries and section index", int64(len(body))-pos())
		}
	}
	if len(lz.slots) > 0 {
		lz.filled = make([]atomic.Pointer[ctt.VData], len(lz.slots))
		m.lazy = lz
	}
	if sink.Enabled() {
		sink.Inc(obs.DecTraces)
		sink.Inc(obs.SelDecodes)
		sink.Add(obs.DecEntries, d.nEnt)
		sink.Add(obs.DecRecords, d.nRec)
		sink.Add(obs.SelEntriesEager, eager)
		sink.Add(obs.SelEntriesSkipped, skipped)
		sink.Add(obs.SelBytesMaterialized, eagerB)
		sink.Add(obs.SelBytesSkipped, skippedB)
	}
	tsp.End(eager, skippedB)
	return m, nil
}
