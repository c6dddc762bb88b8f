// Package checkpoint implements the durable snapshot container: a
// versioned, CRC-guarded binary format into which every stateful component
// of a session serializes itself at a decision-epoch boundary, and from
// which a crashed run can be restored bit for bit.
//
// Layout (all integers little-endian):
//
//	magic       8 bytes  "HDRLCKPT"
//	version     uint32   format version (Version)
//	fingerprint uint64   hash of the canonical config encoding
//	nSections   uint32
//	section table, nSections entries:
//	    nameLen uint16, name bytes, payloadLen uint64, crc32 uint32 (IEEE)
//	payloads, concatenated in table order
//
// Every payload is independently checksummed, so corruption is localized to
// a named section in error messages. The container carries no pointers and
// no code — restoration rebuilds the object graph from the Config and then
// overwrites each component's state from its section.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a snapshot file.
const Magic = "HDRLCKPT"

// Version is the current snapshot format version. Readers reject any other
// version with ErrVersion. Version 2 added the extended fault classes'
// per-server state (effective speed, degrade and drain bookkeeping) and the
// session migration/domain tallies. Version 3 extended the metrics section
// with the telemetry sketch state (sketch-only flag, wait sum, t-digests).
// Version 4 dropped the per-lane priority sequence counter and the one-lane
// engine's pump timer: every session runs on the epoch engine.
const Version uint32 = 4

// maxSectionLen bounds a single section payload (1 GiB) so a corrupt length
// field cannot drive a huge allocation before the CRC check runs.
const maxSectionLen = 1 << 30

// Sentinel errors. Restore failures wrap exactly one of these, so callers
// can classify with errors.Is.
var (
	// ErrCorrupt marks a truncated, malformed, or checksum-failing snapshot.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrConfigMismatch marks a snapshot whose configuration (or shard
	// count) does not match the restore target.
	ErrConfigMismatch = errors.New("checkpoint: config mismatch")
)

// Stateful is the opt-in interface for pluggable components (allocators,
// power managers, predictors, failure clocks, retry policies) that carry
// run-time state: they serialize into and restore from a section stream.
// RestoreState reads exactly what SaveState wrote.
type Stateful interface {
	SaveState(e *Enc)
	RestoreState(d *Dec) error
}

// RNGState is the serializable face of a deterministic generator (seed plus
// draw count, see mat.RNG). The interface lives here so every component's
// state I/O writes RNG chains identically.
type RNGState interface {
	State() (seed, draws int64)
	Restore(seed, draws int64)
}

// SaveRNG appends a generator's (seed, draws) state.
func SaveRNG(e *Enc, r RNGState) {
	seed, draws := r.State()
	e.I64(seed)
	e.I64(draws)
}

// RestoreRNG reads a (seed, draws) state and rewinds r to it in place.
func RestoreRNG(d *Dec, r RNGState) error {
	seed := d.I64()
	draws := d.I64()
	if err := d.err; err != nil {
		return err
	}
	if draws < 0 {
		d.fail("negative RNG draw count %d", draws)
		return d.err
	}
	r.Restore(seed, draws)
	return nil
}

// Stateless is the opt-in marker for pluggable components that carry no
// run-time state (their behavior is a pure function of construction
// parameters). A registered component must implement Stateful or Stateless
// to be checkpointable; anything implementing neither fails Checkpoint
// loudly rather than silently dropping state.
type Stateless interface {
	CheckpointStateless()
}

// ErrNotCheckpointable marks a pluggable component that implements neither
// Stateful nor Stateless: the snapshot cannot represent it, and writing one
// anyway would silently drop its state, so Checkpoint fails loudly instead.
var ErrNotCheckpointable = errors.New("checkpoint: component is neither Stateful nor Stateless")

// saveFailure carries an ErrNotCheckpointable out of a SaveState call chain
// (SaveState itself cannot return errors) to the Catch at the top.
type saveFailure struct{ err error }

// SaveComponent writes a pluggable component's state: a presence flag and,
// for a Stateful, its payload. A component implementing neither interface
// aborts the snapshot by panicking with a failure that Catch converts back
// into an ErrNotCheckpointable.
func SaveComponent(e *Enc, c any) {
	switch v := c.(type) {
	case Stateful:
		e.Bool(true)
		v.SaveState(e)
	case Stateless:
		e.Bool(false)
	default:
		panic(saveFailure{fmt.Errorf("%w: %T", ErrNotCheckpointable, c)})
	}
}

// RestoreComponent reads what SaveComponent wrote into the freshly
// constructed component c, which must have the same checkpointability as
// the one that was saved.
func RestoreComponent(d *Dec, c any) error {
	hasState := d.Bool()
	if err := d.err; err != nil {
		return err
	}
	if !hasState {
		if _, ok := c.(Stateful); ok {
			d.fail("stateless snapshot for stateful component %T", c)
			return d.err
		}
		return nil
	}
	v, ok := c.(Stateful)
	if !ok {
		d.fail("stateful snapshot for stateless component %T", c)
		return d.err
	}
	return v.RestoreState(d)
}

// Catch converts a SaveComponent abort into an error return. Use as
// `defer checkpoint.Catch(&err)` in the function driving a snapshot write.
// Unrelated panics propagate.
func Catch(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(saveFailure)
		if !ok {
			panic(r)
		}
		*err = f.err
	}
}

// Enc appends primitive values to an in-memory section payload. It never
// fails: sections are buffered and checksummed at WriteTo time.
type Enc struct {
	buf []byte
}

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I32 appends a little-endian int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by exact bit pattern (NaN payloads and signed
// zeros round-trip).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// F64s appends a length-prefixed []float64.
func (e *Enc) F64s(v []float64) {
	e.Int(len(v))
	for _, x := range v {
		e.F64(x)
	}
}

// I64s appends a length-prefixed []int64.
func (e *Enc) I64s(v []int64) {
	e.Int(len(v))
	for _, x := range v {
		e.I64(x)
	}
}

// Ints appends a length-prefixed []int.
func (e *Enc) Ints(v []int) {
	e.Int(len(v))
	for _, x := range v {
		e.Int(x)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(v string) {
	e.Int(len(v))
	e.buf = append(e.buf, v...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(v []byte) {
	e.Int(len(v))
	e.buf = append(e.buf, v...)
}

// Len returns the number of bytes encoded so far.
func (e *Enc) Len() int { return len(e.buf) }

// Dec reads primitive values from a section payload. Errors are sticky:
// after the first failure every read returns the zero value, and Err
// reports the latched error (wrapped around ErrCorrupt). This lets restore
// code decode a whole struct linearly and check once.
type Dec struct {
	name string
	buf  []byte
	off  int
	err  error
}

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: section %q: %s", ErrCorrupt, d.name, fmt.Sprintf(format, args...))
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Sticky returns the latched decode error without the end-of-payload check.
// Component RestoreState methods use it at their validation points, since a
// section payload routinely continues past any one component's state; the
// top-level restore driver calls Err once per section instead.
func (d *Dec) Sticky() error { return d.err }

// Err returns the latched decode error, or a trailing-garbage error when
// the payload was not fully consumed. Call once after decoding a section.
func (d *Dec) Err() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: section %q: %d trailing bytes", ErrCorrupt, d.name, len(d.buf)-d.off)
	}
	return nil
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean")
		return false
	}
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int64-encoded int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64 by exact bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// SliceLen decodes an element count and validates it against the remaining
// payload (elemSize is a lower bound on the encoded size per element), so a
// corrupt length fails instead of driving an absurd allocation or loop.
func (d *Dec) SliceLen(elemSize int) int { return d.sliceLen(elemSize) }

// sliceLen validates a decoded element count against the remaining payload
// (elemSize is a lower bound on the encoded size per element), so corrupt
// lengths fail instead of allocating absurd slices.
func (d *Dec) sliceLen(elemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(d.buf)-d.off {
		d.fail("invalid slice length %d", n)
		return 0
	}
	return n
}

// F64s reads a length-prefixed []float64.
func (d *Dec) F64s() []float64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.F64()
	}
	return v
}

// F64sInto reads a length-prefixed []float64 whose length must equal
// len(dst), decoding in place.
func (d *Dec) F64sInto(dst []float64) {
	n := d.Int()
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.fail("float64 slice length %d, want %d", n, len(dst))
		return
	}
	for i := range dst {
		dst[i] = d.F64()
	}
}

// I64s reads a length-prefixed []int64.
func (d *Dec) I64s() []int64 {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = d.I64()
	}
	return v
}

// Ints reads a length-prefixed []int.
func (d *Dec) Ints() []int {
	n := d.sliceLen(8)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.Int()
	}
	return v
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.sliceLen(1)
	if n == 0 {
		return ""
	}
	return string(d.take(n))
}

// Bytes reads a length-prefixed byte slice (copied out of the payload).
func (d *Dec) Bytes() []byte {
	n := d.sliceLen(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.take(n)...)
}

// Writer assembles a snapshot: named sections appended in order, flushed
// with header, table, and per-section CRCs by WriteTo.
type Writer struct {
	fingerprint uint64
	names       []string
	sections    []*Enc
}

// NewWriter starts a snapshot carrying the given config fingerprint.
func NewWriter(fingerprint uint64) *Writer {
	return &Writer{fingerprint: fingerprint}
}

// Section starts a new named section and returns its encoder. Names must be
// unique within a snapshot.
func (w *Writer) Section(name string) *Enc {
	for _, n := range w.names {
		if n == name {
			panic(fmt.Sprintf("checkpoint: duplicate section %q", name))
		}
	}
	e := &Enc{}
	w.names = append(w.names, name)
	w.sections = append(w.sections, e)
	return e
}

// WriteTo serializes the assembled snapshot.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	var hdr []byte
	hdr = append(hdr, Magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, w.fingerprint)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(w.sections)))
	for i, e := range w.sections {
		name := w.names[i]
		hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
		hdr = append(hdr, name...)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(e.buf)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(e.buf))
	}
	var written int64
	n, err := out.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("checkpoint: write header: %w", err)
	}
	for i, e := range w.sections {
		n, err := out.Write(e.buf)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("checkpoint: write section %q: %w", w.names[i], err)
		}
	}
	return written, nil
}

// Reader parses and validates a snapshot: magic, version, section table,
// and every section CRC are checked up front, so decode code downstream
// only ever sees structurally intact payloads.
type Reader struct {
	fingerprint uint64
	order       []string
	sections    map[string][]byte
}

func readFull(r io.Reader, n int, what string) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, fmt.Errorf("%w: short read in %s: %v", ErrCorrupt, what, err)
	}
	return b, nil
}

// NewReader parses a snapshot from r.
func NewReader(r io.Reader) (*Reader, error) {
	fixed, err := readFull(r, len(Magic)+4+8+4, "header")
	if err != nil {
		return nil, err
	}
	if string(fixed[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, fixed[:len(Magic)])
	}
	off := len(Magic)
	if v := binary.LittleEndian.Uint32(fixed[off:]); v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, reader supports %d", ErrVersion, v, Version)
	}
	off += 4
	fp := binary.LittleEndian.Uint64(fixed[off:])
	off += 8
	nSections := binary.LittleEndian.Uint32(fixed[off:])
	if nSections > 4096 {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, nSections)
	}

	type entry struct {
		name string
		n    uint64
		crc  uint32
	}
	entries := make([]entry, nSections)
	for i := range entries {
		lb, err := readFull(r, 2, "section table")
		if err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(lb))
		nb, err := readFull(r, nameLen+8+4, "section table")
		if err != nil {
			return nil, err
		}
		entries[i] = entry{
			name: string(nb[:nameLen]),
			n:    binary.LittleEndian.Uint64(nb[nameLen:]),
			crc:  binary.LittleEndian.Uint32(nb[nameLen+8:]),
		}
		if entries[i].n > maxSectionLen {
			return nil, fmt.Errorf("%w: section %q length %d exceeds limit", ErrCorrupt, entries[i].name, entries[i].n)
		}
	}
	rd := &Reader{fingerprint: fp, sections: make(map[string][]byte, nSections)}
	for _, e := range entries {
		payload, err := readFull(r, int(e.n), "section "+e.name)
		if err != nil {
			return nil, err
		}
		if got := crc32.ChecksumIEEE(payload); got != e.crc {
			return nil, fmt.Errorf("%w: section %q CRC mismatch (got %08x, want %08x)",
				ErrCorrupt, e.name, got, e.crc)
		}
		if _, dup := rd.sections[e.name]; dup {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, e.name)
		}
		rd.order = append(rd.order, e.name)
		rd.sections[e.name] = payload
	}
	return rd, nil
}

// Fingerprint returns the config fingerprint stored in the header.
func (r *Reader) Fingerprint() uint64 { return r.fingerprint }

// Sections returns the section names in file order.
func (r *Reader) Sections() []string { return r.order }

// Section returns a decoder over the named payload, or an ErrCorrupt-wrapped
// error when the snapshot lacks it.
func (r *Reader) Section(name string) (*Dec, error) {
	payload, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return &Dec{name: name, buf: payload}, nil
}
