package docstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// Snapshot file, version 2: the compiled form of the store, so cold start
// adopts its postings blocks as the compiled base instead of re-tokenizing
// every document.
//
//	magic "AGORASN2" (8 bytes)
//	payload:
//	  uvarint nDocs
//	  nDocs × { uvarint len, marshalled Document }   // ascending-ID order == ordinal order
//	  nDocs × uvarint docLen
//	  uvarint nTerms
//	  nTerms × {
//	    uvarint len(term), term bytes
//	    uvarint df
//	    ceil(df/blockSize) postings blocks, back-to-back (codec.go); each
//	    block holds min(blockSize, remaining) entries, so boundaries are
//	    implicit and no per-block directory is stored
//	  }
//	crc32-IEEE over payload (4 bytes, little-endian)
//
// Legacy snapshot files (pre-v2) are WAL-format record streams with no
// magic; loadSnapshotFile declines them and Open replays them as before.
// Compaction always writes v2, so old stores upgrade on their first
// compact.

const snapMagic = "AGORASN2"

// writeSnapshotV2 serializes cx (the compiled live set, including its
// documents) to w in snapshot-v2 format.
func writeSnapshotV2(w io.Writer, cx *compiledIndex) error {
	buf := make([]byte, 0, len(cx.data)+len(cx.ids)*64)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(cx.ids)))
	for _, d := range cx.docs {
		raw := d.marshal()
		buf = binary.AppendUvarint(buf, uint64(len(raw)))
		buf = append(buf, raw...)
	}
	for _, dl := range cx.docLens {
		buf = binary.AppendUvarint(buf, uint64(dl))
	}
	buf = binary.AppendUvarint(buf, uint64(len(cx.termList)))
	for _, t := range cx.termList {
		tm := cx.terms[t]
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
		buf = binary.AppendUvarint(buf, uint64(tm.df))
		start := cx.blocks[tm.blockOff].off
		end := uint32(len(cx.data))
		if next := tm.blockOff + tm.nBlocks; int(next) < len(cx.blocks) {
			end = cx.blocks[next].off
		}
		buf = append(buf, cx.data[start:end]...)
	}
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.ChecksumIEEE(buf[len(snapMagic):]))
	buf = append(buf, tr[:]...)
	_, err := w.Write(buf)
	return err
}

// snapReader is a bounds-checked cursor over the snapshot payload.
type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("docstore: corrupt snapshot: bad varint at %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *snapReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, fmt.Errorf("docstore: corrupt snapshot: %d bytes wanted at %d, %d left", n, r.off, len(r.b)-r.off)
	}
	out := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return out, nil
}

// loadSnapshotFile loads a v2 snapshot: its documents into the (fresh,
// empty) master state, its text index as the returned compiled base. It
// returns (nil, false, nil) when the file is missing or is a legacy pre-v2
// snapshot — the caller falls back to WAL-style replay — and an error when
// a v2 file is corrupt, matching the mid-log corruption semantics of the
// WAL itself.
func loadSnapshotFile(path string, st *state) (*compiledIndex, bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("docstore: reading snapshot: %w", err)
	}
	if len(raw) < len(snapMagic)+4 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, false, nil
	}
	payload := raw[len(snapMagic) : len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, false, fmt.Errorf("docstore: corrupt snapshot: checksum mismatch")
	}
	cx, err := decodeSnapshot(payload, st)
	if err != nil {
		return nil, false, err
	}
	return cx, true, nil
}

// decodeSnapshot decodes a v2 payload (see loadSnapshotFile). The postings
// blocks are adopted verbatim into the compiled arena; the one decode pass
// that validates them also yields each block's directory entry and bound
// and the forward index. Since query-time cursors trust the arena, every
// invariant they rely on is checked here: document IDs and terms strictly
// ascending, each term's postings strictly ascending across its blocks
// (within a block the codec checks it) and below nDocs, and exactly df
// postings per term (the block counts follow from df, and the payload must
// end where the last term's blocks do).
func decodeSnapshot(payload []byte, st *state) (*compiledIndex, error) {
	r := &snapReader{b: payload}
	nDocs, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nDocs > uint64(len(payload)) { // each doc record is at least one byte
		return nil, fmt.Errorf("docstore: corrupt snapshot: %d docs in %d payload bytes", nDocs, len(payload))
	}
	n := int(nDocs)
	st.docs = make(map[string]*Document, n) // the master is fresh: nothing to keep
	cx := &compiledIndex{
		ids:     make([]string, n),
		docs:    make([]*Document, n),
		docLens: make([]uint32, n),
		norms:   make([]float64, n),
		ords:    make(map[string]uint32, n),
		fwdOff:  make([]uint32, n+1),
	}
	for i := 0; i < n; i++ {
		dlen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		db, err := r.bytes(dlen)
		if err != nil {
			return nil, err
		}
		d, err := unmarshalDocument(db)
		if err != nil {
			return nil, fmt.Errorf("docstore: corrupt snapshot: %w", err)
		}
		if d.ID == "" || i > 0 && d.ID <= cx.ids[i-1] {
			return nil, fmt.Errorf("docstore: corrupt snapshot: document %d id %q not above %q", i, d.ID, cx.ids[max(i-1, 0)])
		}
		cx.ids[i], cx.docs[i], cx.ords[d.ID] = d.ID, d, uint32(i)
		// The master is fresh and the ids distinct, so there is no previous
		// version to displace.
		st.applyPut(d)
	}
	for i := 0; i < n; i++ {
		dl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if dl > math.MaxUint32 {
			return nil, fmt.Errorf("docstore: corrupt snapshot: document %d length %d", i, dl)
		}
		cx.docLens[i] = uint32(dl)
		cx.norms[i] = math.Sqrt(float64(dl) + 1)
	}
	nTerms, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nTerms > uint64(len(payload)) {
		return nil, fmt.Errorf("docstore: corrupt snapshot: %d terms in %d payload bytes", nTerms, len(payload))
	}
	cx.terms = make(map[string]termPostings, nTerms)
	cx.termList = make([]string, 0, nTerms)
	cx.data = make([]byte, 0, len(payload)-r.off)
	// termOrds holds every posting's ordinal, term-major, until the forward
	// index can be laid out; fwdOff[o+1] counts ordinal o's terms meanwhile.
	var termOrds []uint32
	var ords, tfs [blockSize]uint32
	for ti := uint64(0); ti < nTerms; ti++ {
		tlen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		tb, err := r.bytes(tlen)
		if err != nil {
			return nil, err
		}
		term := string(tb)
		if ti > 0 && term <= cx.termList[ti-1] {
			return nil, fmt.Errorf("docstore: corrupt snapshot: term %q not above %q", term, cx.termList[ti-1])
		}
		df, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if df == 0 || df > nDocs {
			return nil, fmt.Errorf("docstore: corrupt snapshot: term %q df %d of %d docs", term, df, nDocs)
		}
		tm := termPostings{df: int32(df), blockOff: int32(len(cx.blocks))}
		prev := int64(-1)
		for left := int(df); left > 0; {
			cnt := min(left, blockSize)
			nb, err := decodePostingsBlock(payload[r.off:], cnt, ords[:cnt], tfs[:cnt])
			if err != nil {
				return nil, fmt.Errorf("docstore: corrupt snapshot: term %q: %w", term, err)
			}
			if int64(ords[0]) <= prev || uint64(ords[cnt-1]) >= nDocs {
				return nil, fmt.Errorf("docstore: corrupt snapshot: term %q ordinals %d..%d after %d of %d docs", term, ords[0], ords[cnt-1], prev, nDocs)
			}
			bm := blockMeta{off: uint32(len(cx.data)), firstOrd: ords[0], lastOrd: ords[cnt-1], count: uint16(cnt)}
			for k := 0; k < cnt; k++ {
				if q := cx.ratio(ords[k], tfs[k]); q > bm.maxRatio {
					bm.maxRatio = q
				}
				cx.fwdOff[ords[k]+1]++
			}
			if bm.maxRatio > tm.maxRatio {
				tm.maxRatio = bm.maxRatio
			}
			termOrds = append(termOrds, ords[:cnt]...)
			cx.data = append(cx.data, payload[r.off:r.off+nb]...)
			cx.blocks = append(cx.blocks, bm)
			r.off += nb
			left -= cnt
			prev = int64(ords[cnt-1])
		}
		tm.nBlocks = int32(len(cx.blocks)) - tm.blockOff
		cx.terms[term] = tm
		cx.termList = append(cx.termList, term)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("docstore: corrupt snapshot: %d trailing bytes", len(payload)-r.off)
	}
	for o := 0; o < n; o++ {
		cx.fwdOff[o+1] += cx.fwdOff[o]
	}
	cx.fwdTerms = make([]uint32, len(termOrds))
	fill := slices.Clone(cx.fwdOff[:n])
	pos := 0
	for ti, t := range cx.termList {
		end := pos + int(cx.terms[t].df)
		for _, o := range termOrds[pos:end] {
			cx.fwdTerms[fill[o]] = uint32(ti)
			fill[o]++
		}
		pos = end
	}
	return cx, nil
}
