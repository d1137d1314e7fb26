package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unicode/utf8"
)

// CDRProtocol is a compact binary protocol in the style of GIOP/IIOP: a
// fixed header carrying magic, version, byte order, message type and body
// length, followed by an aligned Common-Data-Representation body. It stands
// in for the "standard inter-ORB protocol ... designed for generality" that
// §2 of the paper contrasts with simple custom protocols; benchmark C2
// compares it against the text protocol.
//
// Frame layout (header fields after the flags byte use the byte order the
// flags announce, as in GIOP):
//
//	offset 0  4 bytes  magic "HRMI"
//	offset 4  1 byte   version (1)
//	offset 5  1 byte   message type
//	offset 6  1 byte   flags (bit0: little-endian, bit1: oneway, bit2: deadline)
//	offset 7  1 byte   reply status
//	offset 8  4 bytes  request ID
//	offset 12 4 bytes  payload length
//
// The payload holds the CDR-encoded meta values (for requests: an optional
// relative-deadline ULong when the deadline flag is set, then the target
// reference and method; for failure replies: the error message), padding to an
// 8-byte boundary, then the call body produced by the encoder. Re-basing
// the body on an 8-byte boundary preserves the alignment the encoder
// established.
type CDRProtocol struct {
	order  byteOrder
	name   string
	little bool
}

// byteOrder combines the read and append byte-order interfaces; both
// binary.BigEndian and binary.LittleEndian satisfy it.
type byteOrder interface {
	binary.ByteOrder
	binary.AppendByteOrder
}

// CDR is the big-endian CDRProtocol instance; CDRLittle the little-endian
// one.
var (
	CDR       Protocol = &CDRProtocol{order: binary.BigEndian, name: "cdr"}
	CDRLittle Protocol = &CDRProtocol{order: binary.LittleEndian, name: "cdr-le", little: true}
)

const (
	cdrMagic     = "HRMI"
	cdrVersion   = 1
	cdrHeaderLen = 16
	flagLittle   = 1 << 0
	flagOneway   = 1 << 1
	flagDeadline = 1 << 2
	cdrBodyAlign = 8
)

// Name implements Protocol.
func (p *CDRProtocol) Name() string { return p.name }

// WriteMessage implements Protocol. The whole frame is assembled in one
// pooled scratch buffer and written with a single Write call.
func (p *CDRProtocol) WriteMessage(w io.Writer, m *Message) error {
	bp := getFrame()
	b, err := p.AppendMessage(*bp, m)
	if err != nil {
		putFrame(bp)
		return err
	}
	*bp = b // recycle the grown buffer, not the original slice
	_, err = w.Write(b)
	putFrame(bp)
	return err
}

// AppendMessage implements Protocol. Alignment inside the frame is relative
// to the frame's own start, so frames append correctly at any dst offset.
func (p *CDRProtocol) AppendMessage(dst []byte, m *Message) ([]byte, error) {
	base := len(dst)
	b := append(dst, cdrZeros[:cdrHeaderLen]...)

	// Encode the meta strings directly into the frame after the header.
	// cdrHeaderLen is a multiple of cdrBodyAlign, so encoder alignment
	// (relative to frame start) still matches decoder alignment (relative
	// to payload start).
	meta := cdrEncoder{buf: b, base: base, order: p.order}
	switch m.Type {
	case MsgRequest:
		if m.Deadline > 0 {
			meta.PutULong(m.Deadline)
		}
		meta.PutString(m.TargetRef)
		meta.PutString(m.Method)
	case MsgReply:
		if m.Status != StatusOK {
			meta.PutString(m.ErrMsg)
		}
	case MsgClose, MsgGoAway, MsgPing, MsgPong:
		// no meta; ping/pong identity rides the fixed header's request ID
	case MsgHello:
		// no meta; the negotiation payload travels as the Body
	default:
		return dst, fmt.Errorf("wire: cannot encode message type %s", m.Type)
	}
	b = meta.buf
	if len(m.Body) > 0 {
		if rem := (len(b) - base - cdrHeaderLen) % cdrBodyAlign; rem != 0 {
			b = append(b, cdrZeros[:cdrBodyAlign-rem]...)
		}
	}
	payload := len(b) - base - cdrHeaderLen + len(m.Body)
	if payload > MaxBodyLen {
		return dst, fmt.Errorf("wire: message payload %d exceeds %d bytes", payload, MaxBodyLen)
	}
	b = append(b, m.Body...)

	hdr := b[base:]
	copy(hdr, cdrMagic)
	hdr[4] = cdrVersion
	hdr[5] = byte(m.Type)
	flags := byte(0)
	if p.little {
		flags |= flagLittle
	}
	if m.Oneway {
		flags |= flagOneway
	}
	if m.Type == MsgRequest && m.Deadline > 0 {
		flags |= flagDeadline
	}
	hdr[6] = flags
	hdr[7] = byte(m.Status)
	p.order.PutUint32(hdr[8:12], m.RequestID)
	p.order.PutUint32(hdr[12:16], uint32(payload))
	return b, nil
}

// ReadMessage implements Protocol. It accepts either byte order regardless
// of which instance reads, per the flags byte. The payload is read into a
// pooled lease buffer and Body views into it — no copy; the caller owns the
// returned message (FreeMessage when done).
func (p *CDRProtocol) ReadMessage(r *bufio.Reader) (*Message, error) {
	// Peek the fixed header out of the bufio buffer instead of copying it
	// into a fresh allocation; the buffer (4 KiB) always fits 16 bytes.
	hdr, err := r.Peek(cdrHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return nil, ErrClosed
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading cdr header: %w", err)
	}
	if string(hdr[:4]) != cdrMagic {
		return nil, fmt.Errorf("wire: bad magic %q", hdr[:4])
	}
	if hdr[4] != cdrVersion {
		return nil, fmt.Errorf("wire: unsupported cdr version %d", hdr[4])
	}
	order := byteOrder(binary.BigEndian)
	if hdr[6]&flagLittle != 0 {
		order = binary.LittleEndian
	}
	hasDeadline := hdr[6]&flagDeadline != 0
	m := NewMessage()
	m.Type = MsgType(hdr[5])
	m.Oneway = hdr[6]&flagOneway != 0
	m.Status = ReplyStatus(hdr[7])
	m.RequestID = order.Uint32(hdr[8:])
	payloadLen := order.Uint32(hdr[12:])
	r.Discard(cdrHeaderLen)
	if payloadLen > MaxBodyLen {
		FreeMessage(m)
		return nil, fmt.Errorf("wire: payload length %d exceeds %d", payloadLen, MaxBodyLen)
	}
	var payload []byte
	if payloadLen > 0 {
		lease := newLease(int(payloadLen))
		if _, err := io.ReadFull(r, lease.buf); err != nil {
			lease.release()
			FreeMessage(m)
			return nil, fmt.Errorf("wire: reading cdr payload: %w", err)
		}
		m.lease = lease
		payload = lease.buf
	}

	meta := &cdrDecoder{buf: payload, order: order}
	bad := func(what string, err error) (*Message, error) {
		FreeMessage(m)
		return nil, fmt.Errorf("wire: %s: %w", what, err)
	}
	switch m.Type {
	case MsgRequest:
		if hasDeadline {
			dl, err := meta.GetULong()
			if err != nil {
				return bad("request deadline", err)
			}
			if dl == 0 {
				return bad("request deadline", fmt.Errorf("deadline flag set with zero value"))
			}
			m.Deadline = dl
		}
		ref, err := meta.stringBytes()
		if err != nil {
			return bad("request target", err)
		}
		method, err := meta.stringBytes()
		if err != nil {
			return bad("request method", err)
		}
		m.TargetRef, m.Method = intern(ref), intern(method)
	case MsgReply:
		if m.Status != StatusOK {
			msg, err := meta.GetString()
			if err != nil {
				return bad("reply error message", err)
			}
			m.ErrMsg = msg
		}
	case MsgClose, MsgGoAway, MsgPing, MsgPong:
		m.ReleaseBody()
		return m, nil
	case MsgHello:
		// No meta: the whole payload is the negotiation body, kept (with
		// its lease) for the negotiator to parse.
	default:
		// hdr views the bufio buffer and is stale after the payload read;
		// the type byte was already captured into m.
		t := byte(m.Type)
		FreeMessage(m)
		return nil, fmt.Errorf("wire: unknown message type %d", t)
	}
	if meta.off < len(payload) {
		body := meta.off
		if rem := body % cdrBodyAlign; rem != 0 {
			body += cdrBodyAlign - rem
		}
		if body > len(payload) {
			body = len(payload)
		}
		m.Body = payload[body:]
	} else {
		// Meta consumed the whole payload: nothing for Body to view, so
		// give the buffer back now rather than when the call completes.
		m.ReleaseBody()
	}
	return m, nil
}

// NewEncoder implements Protocol.
func (p *CDRProtocol) NewEncoder() Encoder { return &cdrEncoder{order: p.order} }

// NewDecoder implements Protocol.
func (p *CDRProtocol) NewDecoder(body []byte) Decoder {
	return &cdrDecoder{buf: body, order: p.order}
}

// cdrEncoder writes aligned binary values. Alignment is relative to base
// (the frame's start inside buf; zero for standalone body encoders),
// preserved across framing by the 8-byte body re-base in AppendMessage.
type cdrEncoder struct {
	buf   []byte
	base  int
	order byteOrder
}

// cdrZeros supplies header and padding bytes without per-call allocation.
var cdrZeros [cdrHeaderLen]byte

func (e *cdrEncoder) align(n int) {
	if rem := (len(e.buf) - e.base) % n; rem != 0 {
		e.buf = append(e.buf, cdrZeros[:n-rem]...)
	}
}

func (e *cdrEncoder) PutBool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *cdrEncoder) PutOctet(v byte) { e.buf = append(e.buf, v) }
func (e *cdrEncoder) PutShort(v int16) {
	e.align(2)
	e.buf = e.order.AppendUint16(e.buf, uint16(v))
}
func (e *cdrEncoder) PutUShort(v uint16) {
	e.align(2)
	e.buf = e.order.AppendUint16(e.buf, v)
}
func (e *cdrEncoder) PutLong(v int32) {
	e.align(4)
	e.buf = e.order.AppendUint32(e.buf, uint32(v))
}
func (e *cdrEncoder) PutULong(v uint32) {
	e.align(4)
	e.buf = e.order.AppendUint32(e.buf, v)
}
func (e *cdrEncoder) PutLongLong(v int64) {
	e.align(8)
	e.buf = e.order.AppendUint64(e.buf, uint64(v))
}
func (e *cdrEncoder) PutULongLong(v uint64) {
	e.align(8)
	e.buf = e.order.AppendUint64(e.buf, v)
}
func (e *cdrEncoder) PutFloat(v float32) {
	e.align(4)
	e.buf = e.order.AppendUint32(e.buf, floatBits32(v))
}
func (e *cdrEncoder) PutDouble(v float64) {
	e.align(8)
	e.buf = e.order.AppendUint64(e.buf, floatBits64(v))
}
func (e *cdrEncoder) PutChar(v rune) {
	e.align(4)
	e.buf = e.order.AppendUint32(e.buf, uint32(v))
}

// PutString writes a ULong byte length (including the terminating NUL, as
// in classic CDR) followed by the bytes and a NUL.
func (e *cdrEncoder) PutString(v string) {
	e.PutULong(uint32(len(v) + 1))
	e.buf = append(e.buf, v...)
	e.buf = append(e.buf, 0)
}

// Begin/End are no-ops in CDR: composite boundaries are implied by the
// schema, exactly why a binary protocol is compact and a text protocol is
// debuggable.
func (e *cdrEncoder) Begin(string) {}
func (e *cdrEncoder) End()         {}

func (e *cdrEncoder) Bytes() []byte { return e.buf }

// Reset implements Encoder, keeping the buffer's capacity for the next call.
func (e *cdrEncoder) Reset() { e.buf = e.buf[:0] }

// cdrDecoder reads aligned binary values. buf may view a leased read buffer;
// everything the decoder hands out is a value or a copy (strings come from
// the arena), so nothing decoded outlives the lease by reference.
type cdrDecoder struct {
	buf   []byte
	off   int
	order byteOrder
	arena strArena
}

func (d *cdrDecoder) align(n int) {
	if rem := d.off % n; rem != 0 {
		d.off += n - rem
	}
}

func (d *cdrDecoder) take(n int, what string) ([]byte, error) {
	if d.off+n > len(d.buf) {
		return nil, errTruncated(what, d.off)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *cdrDecoder) GetBool() (bool, error) {
	b, err := d.take(1, "boolean")
	if err != nil {
		return false, err
	}
	switch b[0] {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("wire: bad boolean byte %d", b[0])
}

func (d *cdrDecoder) GetOctet() (byte, error) {
	b, err := d.take(1, "octet")
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (d *cdrDecoder) GetShort() (int16, error) {
	d.align(2)
	b, err := d.take(2, "short")
	if err != nil {
		return 0, err
	}
	return int16(d.order.Uint16(b)), nil
}

func (d *cdrDecoder) GetUShort() (uint16, error) {
	d.align(2)
	b, err := d.take(2, "ushort")
	if err != nil {
		return 0, err
	}
	return d.order.Uint16(b), nil
}

func (d *cdrDecoder) GetLong() (int32, error) {
	d.align(4)
	b, err := d.take(4, "long")
	if err != nil {
		return 0, err
	}
	return int32(d.order.Uint32(b)), nil
}

func (d *cdrDecoder) GetULong() (uint32, error) {
	d.align(4)
	b, err := d.take(4, "ulong")
	if err != nil {
		return 0, err
	}
	return d.order.Uint32(b), nil
}

func (d *cdrDecoder) GetLongLong() (int64, error) {
	d.align(8)
	b, err := d.take(8, "longlong")
	if err != nil {
		return 0, err
	}
	return int64(d.order.Uint64(b)), nil
}

func (d *cdrDecoder) GetULongLong() (uint64, error) {
	d.align(8)
	b, err := d.take(8, "ulonglong")
	if err != nil {
		return 0, err
	}
	return d.order.Uint64(b), nil
}

func (d *cdrDecoder) GetFloat() (float32, error) {
	d.align(4)
	b, err := d.take(4, "float")
	if err != nil {
		return 0, err
	}
	return floatFrom32(d.order.Uint32(b)), nil
}

func (d *cdrDecoder) GetDouble() (float64, error) {
	d.align(8)
	b, err := d.take(8, "double")
	if err != nil {
		return 0, err
	}
	return floatFrom64(d.order.Uint64(b)), nil
}

func (d *cdrDecoder) GetChar() (rune, error) {
	d.align(4)
	b, err := d.take(4, "char")
	if err != nil {
		return 0, err
	}
	r := rune(d.order.Uint32(b))
	if !utf8.ValidRune(r) {
		return 0, fmt.Errorf("wire: invalid char code point %#x", uint32(r))
	}
	return r, nil
}

// stringBytes reads one string and returns its bytes (without the NUL) as a
// view into buf.
func (d *cdrDecoder) stringBytes() ([]byte, error) {
	n, err := d.GetULong()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("wire: zero-length string encoding")
	}
	if n > MaxStringLen {
		return nil, fmt.Errorf("wire: string length %d exceeds %d", n, MaxStringLen)
	}
	b, err := d.take(int(n), "string")
	if err != nil {
		return nil, err
	}
	if b[n-1] != 0 {
		return nil, fmt.Errorf("wire: string missing NUL terminator")
	}
	return b[:n-1], nil
}

func (d *cdrDecoder) GetString() (string, error) {
	b, err := d.stringBytes()
	if err != nil {
		return "", err
	}
	return d.arena.str(d.buf, d.off-len(b)-1, len(b)), nil
}

// BeginGet/EndGet are no-ops in CDR; BeginGet reports an empty tag.
func (d *cdrDecoder) BeginGet() (string, error) { return "", nil }
func (d *cdrDecoder) EndGet() error             { return nil }

// Reset implements Decoder, re-targeting the decoder at a new body.
func (d *cdrDecoder) Reset(body []byte) { d.buf, d.off, d.arena = body, 0, strArena{} }

func (d *cdrDecoder) Remaining() int {
	if d.off >= len(d.buf) {
		return 0
	}
	return len(d.buf) - d.off
}

// Float bit conversions, isolated for clarity.
func floatBits32(f float32) uint32 { return math.Float32bits(f) }
func floatFrom32(b uint32) float32 { return math.Float32frombits(b) }
func floatBits64(f float64) uint64 { return math.Float64bits(f) }
func floatFrom64(b uint64) float64 { return math.Float64frombits(b) }
