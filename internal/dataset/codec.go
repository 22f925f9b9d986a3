package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"idebench/internal/wire"
)

// Stable binary serialization of tables — the storage layer of the durable
// checkpoint format (internal/durable). The unit is a segment: rows
// [from, to) of one table. A table on disk is a lineage of segments
// [0, a), [a, b), …, and a whole table is the single-segment case [0, n)
// that EncodeTable and DecodeTable read and write. The encoding is
// versioned, self-contained per lineage (nominal columns carry their
// dictionary contents, split across the segments that first reference
// them), and deterministic: encoding the same logical rows twice yields
// byte-identical output, because every variable-order structure is
// serialized in a canonical order — schema fields in schema order,
// dictionary values in code order (Dict.Values' documented enumeration
// order). Checkpoint content hashes and the byte-identity determinism test
// rely on this.
//
// Layout (all integers little-endian):
//
//	magic "IDBT2\x00"
//	u16 len | table name
//	u32 field count
//	per field: u8 kind | u16 len | field name
//	u64 from | u64 to                       the segment's rows [from, to)
//	per column, in schema order:
//	  quantitative: u8 boundsOK | f64 lo | f64 hi | (to-from) × f64 (IEEE-754 bits)
//	  nominal:      u32 dictFrom | u32 dictTo
//	                | (dictTo-dictFrom) × (u32 len | bytes) | (to-from) × u32 codes
//
// A nominal column carries the dictionary delta [dictFrom, dictTo): dictFrom
// is the previous segment's dictTo (0 for the first), and dictTo is pinned
// by the largest code rows [0, to) reference. Shared append-only
// dictionaries therefore serialize exactly the prefix the encoded rows use,
// so the bytes depend only on the rows, never on how far concurrent ingest
// has grown the live dictionary since the view was taken.
//
// A quantitative column carries the column's memoized bounds over rows
// [0, to) — the whole lineage up to the segment's end, as the encoded view
// reports them — so a decoded table skips the O(n) warm-up pass NewTable
// would otherwise pay, and a lineage's recovered MinMax is the last
// segment's, bit for bit. (Per-segment bounds folded at load time cannot
// promise that: TableAppender freezes its bounds at the first NaN batch,
// and which rows of a segment preceded that batch is not recorded.)

// tableMagic frames one serialized segment; the trailing byte versions the
// format, so a future layout change bumps the magic rather than guessing.
var tableMagic = []byte("IDBT2\x00")

// maxDecodeElems bounds any single length field read while decoding, so a
// corrupt or adversarial header cannot ask for a multi-terabyte allocation
// before the per-element bounds checks run.
const maxDecodeElems = 1 << 32

// Segment is rows [From, To) of a table, in the form the codec reads and
// writes. Its payload slices may alias a table's storage (TableSegment) or
// be decoded copies (DecodeSegment).
type Segment struct {
	Name     string
	Fields   []Field
	From, To int
	Columns  []SegmentColumn // one per field, in schema order
}

// SegmentColumn is one column's share of a segment. Quantitative columns
// use Lo/Hi/BoundsOK (the bounds over rows [0, To)) and Nums; nominal
// columns use DictFrom, DictDelta (the dictionary entries with codes
// [DictFrom, DictFrom+len(DictDelta)), in code order) and Codes.
type SegmentColumn struct {
	Lo, Hi    float64
	BoundsOK  bool
	Nums      []float64
	DictFrom  int
	DictDelta []string
	Codes     []uint32
}

// DictTo is the end of the column's dictionary delta: the dictionary length
// every row up to the segment's end fits in, and the next segment's
// DictFrom.
func (c *SegmentColumn) DictTo() int { return c.DictFrom + len(c.DictDelta) }

// TableSegment returns rows [from, to) of t as a segment whose payload
// aliases t's storage. dictFrom gives, per column, where each nominal
// column's dictionary delta starts — the previous segment's DictTo; nil
// means 0 everywhere (the first segment of a lineage).
func TableSegment(t *Table, from, to int, dictFrom []int) (*Segment, error) {
	if from < 0 || from > to || to > t.NumRows() {
		return nil, fmt.Errorf("dataset: segment of %q: rows [%d, %d) outside [0, %d)", t.Name, from, to, t.NumRows())
	}
	s := &Segment{Name: t.Name, Fields: t.Schema.Fields, From: from, To: to,
		Columns: make([]SegmentColumn, len(t.Columns))}
	for i, c := range t.Columns {
		sc := &s.Columns[i]
		if c.Field.Kind != Nominal {
			// MinMax (not the raw memo fields) keeps the encoding
			// deterministic regardless of whether a caller already warmed
			// the bounds: it computes them on first use.
			sc.Lo, sc.Hi, sc.BoundsOK = c.MinMax()
			sc.Nums = c.Nums[from:to]
			continue
		}
		if dictFrom != nil {
			sc.DictFrom = dictFrom[i]
		}
		// Pin the delta's end to the codes rows up to `to` reference. The
		// dictionary is shared and append-only across the COW lineage, so by
		// encode time it may already hold values interned by batches newer
		// than this view; the prefix is exactly the dictionary as it stood
		// when the rows' last new value was interned (interning happens
		// row by row, so every code below maxRef+1 was assigned at or before
		// the row referencing maxRef). Rows before `from` are covered by
		// dictFrom, the previous segment's pin.
		sc.Codes = c.Codes[from:to]
		dictTo := sc.DictFrom
		for _, code := range sc.Codes {
			if int(code)+1 > dictTo {
				dictTo = int(code) + 1
			}
		}
		if dictTo > c.Dict.Len() {
			return nil, fmt.Errorf("dataset: segment of %q: column %q: dictionary delta [%d, %d) beyond its %d values",
				t.Name, c.Field.Name, sc.DictFrom, dictTo, c.Dict.Len())
		}
		sc.DictDelta = c.Dict.Values()[sc.DictFrom:dictTo]
	}
	return s, nil
}

// segmentChunk is the scratch size Encode stages payload in: large enough
// that the writer sees few calls, small enough that no table-sized buffer
// exists at any point.
const segmentChunk = 32 << 10

// Encode streams the segment to w in the stable layout. Its scratch holds
// segmentChunk bytes (or one dictionary value, if longer), whatever the
// segment's row count.
func (s *Segment) Encode(w io.Writer) error {
	buf := make([]byte, 0, segmentChunk)
	buf = append(buf, tableMagic...)
	buf = appendString16(buf, s.Name)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Fields)))
	for _, f := range s.Fields {
		buf = append(buf, byte(f.Kind))
		buf = appendString16(buf, f.Name)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.From))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.To))
	// room writes buf out unless it still has space for need more bytes,
	// and reports how many elemSize-byte values fit afterwards.
	var err error
	room := func(need, elemSize int) int {
		if err == nil && len(buf)+need > cap(buf) {
			_, err = w.Write(buf)
			buf = buf[:0]
		}
		return (cap(buf) - len(buf)) / elemSize
	}
	for i, f := range s.Fields {
		c := &s.Columns[i]
		if f.Kind == Nominal {
			room(8, 1)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c.DictFrom))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c.DictTo()))
			for _, v := range c.DictDelta {
				room(4+len(v), 1)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
				buf = append(buf, v...)
			}
			for codes := c.Codes; len(codes) > 0 && err == nil; {
				n := min(len(codes), room(4, 4))
				for _, code := range codes[:n] {
					buf = binary.LittleEndian.AppendUint32(buf, code)
				}
				codes = codes[n:]
			}
			continue
		}
		room(17, 1)
		ok := byte(0)
		if c.BoundsOK {
			ok = 1
		}
		buf = append(buf, ok)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Hi))
		for nums := c.Nums; len(nums) > 0 && err == nil; {
			n := min(len(nums), room(8, 8))
			for _, v := range nums[:n] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			nums = nums[n:]
		}
	}
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// DecodeSegment parses one standalone segment. It never panics on corrupt
// input: every length is bounds-checked against the remaining data and every
// dictionary code against its segment's dictTo, so a bit-flipped segment
// surfaces as an error, not a crash. A segment that decodes re-encodes to
// the same bytes.
func DecodeSegment(data []byte) (*Segment, error) {
	s := &Segment{}
	if err := decodeSegment(data, s, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeSegment parses data into s. When s already holds a segment (a
// TableLoader continuing a lineage) the header must name the same table and
// fields, and the payload is appended to s's column slices; otherwise the
// column slices are allocated with room for max(capHint, rows) rows.
func decodeSegment(data []byte, s *Segment, capHint int) error {
	r := wire.NewReader(data)
	if !bytes.Equal(r.Take(len(tableMagic)), tableMagic) {
		return fmt.Errorf("dataset: decode segment: bad magic (not a format-2 segment)")
	}
	name := string(r.Take(int(r.Uint16())))
	nFields := int(r.Uint32())
	if r.Err() == nil && nFields > maxDecodeElems {
		return fmt.Errorf("dataset: decode segment %q: implausible field count %d", name, nFields)
	}
	fields := make([]Field, 0, min(nFields, 1024))
	for i := 0; i < nFields && r.Err() == nil; i++ {
		k := Kind(r.Byte())
		fn := string(r.Take(int(r.Uint16())))
		if k != Quantitative && k != Nominal {
			return fmt.Errorf("dataset: decode segment %q: field %q: unknown kind %d", name, fn, k)
		}
		fields = append(fields, Field{Name: fn, Kind: k})
	}
	from64, to64 := r.Uint64(), r.Uint64()
	if r.Err() != nil {
		return fmt.Errorf("dataset: decode segment %q: %w", name, r.Err())
	}
	if to64 > maxDecodeElems || from64 > to64 {
		return fmt.Errorf("dataset: decode segment %q: implausible row range [%d, %d)", name, from64, to64)
	}
	if s.Columns != nil {
		if name != s.Name || !slices.Equal(fields, s.Fields) {
			return fmt.Errorf("dataset: decode segment %q: schema differs from the lineage's (table %q)", name, s.Name)
		}
	} else {
		s.Name, s.Fields = name, fields
		s.Columns = make([]SegmentColumn, len(fields))
	}
	s.From, s.To = int(from64), int(to64)
	rows := s.To - s.From
	for i, f := range fields {
		c := &s.Columns[i]
		if f.Kind == Nominal {
			dictFrom, dictTo := r.Uint32(), r.Uint32()
			if r.Err() != nil {
				return fmt.Errorf("dataset: decode segment %q: column %q: %w", name, f.Name, r.Err())
			}
			if dictTo < dictFrom || int64(dictTo-dictFrom)*4 > int64(r.Len()) {
				return fmt.Errorf("dataset: decode segment %q: column %q: bad dictionary delta [%d, %d)", name, f.Name, dictFrom, dictTo)
			}
			c.DictFrom = int(dictFrom)
			c.DictDelta = make([]string, 0, dictTo-dictFrom)
			for j := dictFrom; j < dictTo && r.Err() == nil; j++ {
				c.DictDelta = append(c.DictDelta, string(r.Take(int(r.Uint32()))))
			}
			b := r.Take(rows * 4)
			if r.Err() != nil {
				return fmt.Errorf("dataset: decode segment %q: column %q: %w", name, f.Name, r.Err())
			}
			if c.Codes == nil {
				c.Codes = make([]uint32, 0, max(capHint, rows))
			}
			c.Codes = slices.Grow(c.Codes, rows)
			for j := 0; j < rows; j++ {
				code := binary.LittleEndian.Uint32(b[4*j:])
				if code >= dictTo {
					return fmt.Errorf("dataset: decode segment %q: column %q: code %d out of range (dict len %d)", name, f.Name, code, dictTo)
				}
				c.Codes = append(c.Codes, code)
			}
			continue
		}
		ok := r.Byte()
		if ok > 1 {
			return fmt.Errorf("dataset: decode segment %q: column %q: bounds flag %d", name, f.Name, ok)
		}
		c.BoundsOK = ok == 1
		c.Lo, c.Hi = r.Float64(), r.Float64()
		b := r.Take(rows * 8)
		if r.Err() != nil {
			return fmt.Errorf("dataset: decode segment %q: column %q: %w", name, f.Name, r.Err())
		}
		if c.Nums == nil {
			c.Nums = make([]float64, 0, max(capHint, rows))
		}
		c.Nums = slices.Grow(c.Nums, rows)
		for j := 0; j < rows; j++ {
			c.Nums = append(c.Nums, math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:])))
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("dataset: decode segment %q: %d trailing bytes", name, r.Len())
	}
	return nil
}

// TableLoader decodes a lineage of segments — rows [0, a), [a, b), … — into
// one table. Each segment's payload lands directly in the columns, which are
// sized once for the whole lineage: there is no per-segment table and no
// concatenation copy.
type TableLoader struct {
	capHint int
	seg     Segment // accumulates every column's payload across Add calls
	dicts   []*Dict
	rows    int
	err     error
}

// NewTableLoader returns a loader whose columns are presized for rows rows
// (the lineage's total, when the caller knows it; 0 sizes by the first
// segment).
func NewTableLoader(rows int) *TableLoader { return &TableLoader{capHint: rows} }

// Add decodes the next segment of the lineage. It must start where the
// previous one ended, describe the same table, and continue every nominal
// column's dictionary exactly where the previous segment's delta ended. A
// failed Add poisons the loader.
func (l *TableLoader) Add(data []byte) error {
	if l.err != nil {
		return l.err
	}
	l.err = l.add(data)
	return l.err
}

func (l *TableLoader) add(data []byte) error {
	if err := decodeSegment(data, &l.seg, l.capHint); err != nil {
		return err
	}
	s := &l.seg
	if s.From != l.rows {
		return fmt.Errorf("dataset: load %q: segment starts at row %d, the lineage has %d", s.Name, s.From, l.rows)
	}
	if l.dicts == nil {
		l.dicts = make([]*Dict, len(s.Fields))
	}
	for i, f := range s.Fields {
		if f.Kind != Nominal {
			continue
		}
		if l.dicts[i] == nil {
			l.dicts[i] = NewDict()
		}
		d, c := l.dicts[i], &s.Columns[i]
		if c.DictFrom != d.Len() {
			return fmt.Errorf("dataset: load %q: column %q: dictionary delta starts at %d, the lineage has %d values",
				s.Name, f.Name, c.DictFrom, d.Len())
		}
		for _, v := range c.DictDelta {
			if _, dup := d.Lookup(v); dup {
				return fmt.Errorf("dataset: load %q: column %q: duplicate dictionary value %q", s.Name, f.Name, v)
			}
			d.Code(v)
		}
		c.DictDelta = nil
	}
	l.rows = s.To
	return nil
}

// Table assembles the loaded lineage. Quantitative bounds come from the
// last segment, which carries them for every row loaded.
func (l *TableLoader) Table() (*Table, error) {
	if l.err != nil {
		return nil, l.err
	}
	if l.dicts == nil {
		return nil, fmt.Errorf("dataset: load: no segments")
	}
	s := &l.seg
	schema, err := NewSchema(s.Fields)
	if err != nil {
		return nil, fmt.Errorf("dataset: load %q: %w", s.Name, err)
	}
	cols := make([]*Column, len(s.Fields))
	for i, f := range s.Fields {
		sc := &s.Columns[i]
		c := &Column{Field: f}
		if f.Kind == Nominal {
			c.Dict, c.Codes = l.dicts[i], sc.Codes
		} else {
			c.Nums = sc.Nums
			c.seedMinMax(sc.Lo, sc.Hi, sc.BoundsOK)
		}
		cols[i] = c
	}
	t, err := NewTable(s.Name, schema, cols)
	if err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	return t, nil
}

// EncodeTable serializes t as the single segment [0, n).
func EncodeTable(t *Table) []byte {
	var buf bytes.Buffer
	buf.Grow(int(64 + tableBytes(t)))
	s, err := TableSegment(t, 0, t.NumRows(), nil)
	if err == nil {
		err = s.Encode(&buf)
	}
	if err != nil {
		// Unreachable: [0, n) is always in range, its codes are always in
		// their dictionary, and a bytes.Buffer never fails a write.
		panic(fmt.Sprintf("dataset: encode table: %v", err))
	}
	return buf.Bytes()
}

// DecodeTable reconstructs a table from EncodeTable output: a lineage of
// exactly one segment, starting at row 0.
func DecodeTable(data []byte) (*Table, error) {
	l := NewTableLoader(0)
	if err := l.Add(data); err != nil {
		return nil, err
	}
	return l.Table()
}

func appendString16(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16] // names never approach this; guard anyway
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}
