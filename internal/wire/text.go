package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// TextProtocol is HeidiRMI's original wire protocol: every message is a
// single newline-terminated ASCII line (§3.1). The format is deliberately
// human-typable — §4.2: "Utilizing such a text-based protocol permitted a
// 'human' client to telnet into the bootstrap port of a Heidi application
// and type in simple HeidiRMI requests to debug the system."
//
// Message grammar (one line each):
//
//	call <id> <ref> <method> [@<ms>] <body tokens...>   two-way request
//	send <id> <ref> <method> [@<ms>] <body tokens...>   oneway request
//	ok <id> <body tokens...>                            successful reply
//	err <id> <status> <quoted message>                  failure reply
//	close                                               connection close
//	goaway                                              server draining
//	hello <payload...>                                  feature negotiation
//	ping <id>                                           liveness probe
//	pong <id>                                           liveness answer
//
// The optional @<ms> header token is the request's relative deadline in
// milliseconds ("this call is worth 150 more milliseconds of your time");
// absent means unbounded, keeping deadline-free frames byte-identical to
// the seed protocol. The token cannot be mistaken for a body token: body
// tokens are numbers, T/F, quoted strings, or braces, never '@'.
//
// Body tokens: integers and floats in decimal, booleans as T/F, strings
// Go-quoted, composite values bracketed by {tag ... }.
type TextProtocol struct{}

// Text is the shared TextProtocol instance.
var Text Protocol = TextProtocol{}

// Name implements Protocol.
func (TextProtocol) Name() string { return "text" }

// WriteMessage implements Protocol. The frame is assembled in a pooled
// scratch buffer and written in one call.
func (p TextProtocol) WriteMessage(w io.Writer, m *Message) error {
	bp := getFrame()
	defer putFrame(bp)
	b, err := p.AppendMessage(*bp, m)
	if err != nil {
		return err
	}
	*bp = b
	_, err = w.Write(b)
	return err
}

// AppendMessage implements Protocol.
func (TextProtocol) AppendMessage(dst []byte, m *Message) ([]byte, error) {
	b := dst
	switch m.Type {
	case MsgRequest:
		if m.Oneway {
			b = append(b, "send "...)
		} else {
			b = append(b, "call "...)
		}
		b = strconv.AppendUint(b, uint64(m.RequestID), 10)
		b = append(b, ' ')
		b = append(b, m.TargetRef...)
		b = append(b, ' ')
		b = append(b, m.Method...)
		if m.Deadline > 0 {
			b = append(b, " @"...)
			b = strconv.AppendUint(b, uint64(m.Deadline), 10)
		}
	case MsgReply:
		if m.Status == StatusOK {
			b = append(b, "ok "...)
			b = strconv.AppendUint(b, uint64(m.RequestID), 10)
		} else {
			b = append(b, "err "...)
			b = strconv.AppendUint(b, uint64(m.RequestID), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(m.Status), 10)
			b = append(b, ' ')
			b = appendQuoted(b, m.ErrMsg)
		}
	case MsgClose:
		b = append(b, "close"...)
	case MsgGoAway:
		b = append(b, "goaway"...)
	case MsgHello:
		b = append(b, "hello"...)
	case MsgPing:
		b = append(b, "ping "...)
		b = strconv.AppendUint(b, uint64(m.RequestID), 10)
	case MsgPong:
		b = append(b, "pong "...)
		b = strconv.AppendUint(b, uint64(m.RequestID), 10)
	default:
		return dst, fmt.Errorf("wire: cannot encode message type %s", m.Type)
	}
	if len(m.Body) > 0 {
		b = append(b, ' ')
		b = append(b, m.Body...)
	}
	return append(b, '\n'), nil
}

// ReadMessage implements Protocol. The line is read into a pooled lease
// buffer; request/reply bodies view into it without copying. The caller owns
// the returned message (FreeMessage when done).
func (TextProtocol) ReadMessage(r *bufio.Reader) (*Message, error) {
	lease := newLease(0)
	buf := lease.buf[:0]
	for {
		frag, err := r.ReadSlice('\n')
		buf = append(buf, frag...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(buf) > MaxBodyLen {
				lease.release()
				return nil, fmt.Errorf("wire: text message exceeds %d bytes", MaxBodyLen)
			}
			continue
		}
		lease.release()
		if err == io.EOF && len(buf) == 0 {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("wire: reading text message: %w", err)
	}
	lease.buf = buf // keep the grown capacity with the lease
	line := buf
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if len(line) > MaxBodyLen {
		lease.release()
		return nil, fmt.Errorf("wire: text message exceeds %d bytes", MaxBodyLen)
	}
	bad := func(format string, args ...any) (*Message, error) {
		lease.release()
		return nil, fmt.Errorf("wire: "+format, args...)
	}
	verb, rest := nextField(line)
	m := NewMessage()
	switch string(verb) {
	case "close":
		lease.release()
		m.Type = MsgClose
		return m, nil
	case "goaway":
		lease.release()
		m.Type = MsgGoAway
		return m, nil
	case "hello":
		// The rest of the line is the negotiation payload, opaque at this
		// layer (hello.go parses it). It may contain spaces, so it is not
		// tokenized here.
		m.Type = MsgHello
		if len(rest) > 0 {
			m.Body = rest
			m.lease = lease
		} else {
			lease.release()
		}
		return m, nil
	case "ping", "pong":
		m.Type = MsgPing
		if verb[1] == 'o' {
			m.Type = MsgPong
		}
		id, _ := nextField(rest)
		n, err := strconv.ParseUint(string(id), 10, 32)
		if err != nil {
			FreeMessage(m)
			return bad("bad %s id %s", verb, excerpt(id))
		}
		m.RequestID = uint32(n)
		lease.release()
		return m, nil
	case "call", "send":
		m.Type = MsgRequest
		m.Oneway = verb[0] == 's'
		id, rest2 := nextField(rest)
		ref, rest3 := nextField(rest2)
		method, body := nextField(rest3)
		n, err := strconv.ParseUint(string(id), 10, 32)
		if err != nil {
			FreeMessage(m)
			return bad("bad request id %s", excerpt(id))
		}
		if len(ref) == 0 || len(method) == 0 {
			FreeMessage(m)
			return bad("request missing target or method: %s", excerpt(line))
		}
		m.RequestID = uint32(n)
		m.TargetRef = intern(ref)
		m.Method = intern(method)
		if dl, rest4, derr, ok := deadlineToken(body); ok {
			if derr != nil {
				FreeMessage(m)
				return bad("bad deadline token in %s", excerpt(line))
			}
			m.Deadline = dl
			body = rest4
		}
		if len(body) > 0 {
			m.Body = body
			m.lease = lease
		} else {
			lease.release()
		}
		return m, nil
	case "ok":
		m.Type = MsgReply
		m.Status = StatusOK
		id, body := nextField(rest)
		n, err := strconv.ParseUint(string(id), 10, 32)
		if err != nil {
			FreeMessage(m)
			return bad("bad reply id %s", excerpt(id))
		}
		m.RequestID = uint32(n)
		if len(body) > 0 {
			m.Body = body
			m.lease = lease
		} else {
			lease.release()
		}
		return m, nil
	case "err":
		m.Type = MsgReply
		id, rest2 := nextField(rest)
		status, rest3 := nextField(rest2)
		n, err := strconv.ParseUint(string(id), 10, 32)
		if err != nil {
			FreeMessage(m)
			return bad("bad reply id %s", excerpt(id))
		}
		sc, err := strconv.Atoi(string(status))
		if err != nil || sc == int(StatusOK) {
			FreeMessage(m)
			return bad("bad error status %s", excerpt(status))
		}
		msg := string(bytes.TrimSpace(rest3))
		if unq, err := unquoteToken(msg); err == nil {
			msg = unq
		}
		m.RequestID = uint32(n)
		m.Status = ReplyStatus(sc)
		m.ErrMsg = msg
		lease.release()
		return m, nil
	default:
		FreeMessage(m)
		return bad("unknown text verb %s", excerpt(verb))
	}
}

// deadlineToken recognizes the optional @<ms> deadline header between the
// method and the body. ok reports whether a deadline token is present at
// all (body tokens never start with '@'); err reports a present-but-
// malformed one.
func deadlineToken(body []byte) (dl uint32, rest []byte, err error, ok bool) {
	for len(body) > 0 && body[0] == ' ' {
		body = body[1:]
	}
	if len(body) == 0 || body[0] != '@' {
		return 0, body, nil, false
	}
	tok, rest := nextField(body)
	n, err := strconv.ParseUint(string(tok[1:]), 10, 32)
	if err != nil || n == 0 {
		return 0, body, fmt.Errorf("wire: bad deadline token %s", excerpt(tok)), true
	}
	return uint32(n), rest, nil, true
}

// maxExcerpt bounds how much of a malformed line or token an error quotes.
// Decode errors travel back to the peer (a skeleton's becomes the reply's
// ErrMsg), so they must not echo, let alone amplify, what came in: %q spends
// up to four characters on a byte, and 32 bytes keep a message under 256 B.
const maxExcerpt = 32

// excerpt quotes peer bytes for an error message: all of b when it is short,
// else its first maxExcerpt bytes and its length.
func excerpt(b []byte) string {
	if len(b) <= maxExcerpt {
		return strconv.Quote(string(b))
	}
	return fmt.Sprintf("%q... (%d bytes)", b[:maxExcerpt], len(b))
}

// nextField splits off the next space-delimited field.
func nextField(s []byte) (field, rest []byte) {
	for len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	i := bytes.IndexByte(s, ' ')
	if i < 0 {
		return s, nil
	}
	return s[:i], s[i+1:]
}

// --- quoting fast path --------------------------------------------------------
//
// Strings on the text wire are Go-quoted, but the overwhelming majority of
// real payloads are plain printable ASCII needing no escapes at all. A single
// memchr-style scan decides whether the strconv round trip is needed; when it
// is not, quoting is one copy and unquoting is a zero-copy sub-view. This is
// what brings text/payload1k within reach of CDR (EXPERIMENTS.md R3).

// SWAR constants: one bit pattern repeated across all eight byte lanes.
const (
	swarLSB   = 0x0101010101010101
	swarMSB   = 0x8080808080808080
	swarSpace = 0x2020202020202020 // 0x20 in every lane
	swarDel   = 0x7f7f7f7f7f7f7f7f // DEL in every lane
	swarQuote = 0x2222222222222222 // '"' in every lane
	swarSlash = 0x5c5c5c5c5c5c5c5c // '\\' in every lane
)

// swarHasZero flags (high bit of) every all-zero byte lane in v.
func swarHasZero(v uint64) uint64 { return (v - swarLSB) & ^v & swarMSB }

// quotePlain reports whether every byte of s can travel inside double quotes
// unescaped: printable ASCII excluding the quote and backslash characters.
// The scan is eight bytes per step: a lane is flagged if it is non-ASCII,
// a control byte (<0x20), DEL, '"', or '\\'. On kilobyte payloads this scan
// is the whole cost of the quoting fast path, so it is worth the bit tricks.
func quotePlain[T string | []byte](s T) bool {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		bad := x & swarMSB                    // non-ASCII
		bad |= (x - swarSpace) & ^x & swarMSB // < 0x20
		bad |= swarHasZero(x ^ swarDel)       // == 0x7f
		bad |= swarHasZero(x ^ swarQuote)     // == '"'
		bad |= swarHasZero(x ^ swarSlash)     // == '\\'
		if bad != 0 {
			return false
		}
	}
	for ; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendQuoted is strconv.AppendQuote with the escape-free fast path.
func appendQuoted(b []byte, s string) []byte {
	if quotePlain(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	return strconv.AppendQuote(b, s)
}

// plainQuoted reports whether t is a double-quoted token with nothing to
// unescape: the string is then t[1:len(t)-1] verbatim.
func plainQuoted[T string | []byte](t T) bool {
	return len(t) >= 2 && t[0] == '"' && t[len(t)-1] == '"' && quotePlain(t[1:len(t)-1])
}

// unquoteToken is strconv.Unquote with the escape-free fast path; on the
// fast path the result is a sub-view of t, not a copy.
func unquoteToken(t string) (string, error) {
	if plainQuoted(t) {
		return t[1 : len(t)-1], nil
	}
	return strconv.Unquote(t)
}

// NewEncoder implements Protocol.
func (TextProtocol) NewEncoder() Encoder { return &textEncoder{} }

// NewDecoder implements Protocol.
func (TextProtocol) NewDecoder(body []byte) Decoder { return &textDecoder{buf: body} }

// textEncoder renders body values as space-separated tokens, appended
// directly to a byte buffer (no intermediate token strings, and Bytes hands
// the buffer out without copying).
type textEncoder struct {
	buf []byte
}

// sep writes the token separator before every token but the first.
func (e *textEncoder) sep() {
	if len(e.buf) > 0 {
		e.buf = append(e.buf, ' ')
	}
}

func (e *textEncoder) PutBool(v bool) {
	e.sep()
	if v {
		e.buf = append(e.buf, 'T')
	} else {
		e.buf = append(e.buf, 'F')
	}
}
func (e *textEncoder) PutOctet(v byte) {
	e.sep()
	e.buf = strconv.AppendUint(e.buf, uint64(v), 10)
}
func (e *textEncoder) PutShort(v int16) {
	e.sep()
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}
func (e *textEncoder) PutUShort(v uint16) {
	e.sep()
	e.buf = strconv.AppendUint(e.buf, uint64(v), 10)
}
func (e *textEncoder) PutLong(v int32) {
	e.sep()
	e.buf = strconv.AppendInt(e.buf, int64(v), 10)
}
func (e *textEncoder) PutULong(v uint32) {
	e.sep()
	e.buf = strconv.AppendUint(e.buf, uint64(v), 10)
}
func (e *textEncoder) PutLongLong(v int64) {
	e.sep()
	e.buf = strconv.AppendInt(e.buf, v, 10)
}
func (e *textEncoder) PutULongLong(v uint64) {
	e.sep()
	e.buf = strconv.AppendUint(e.buf, v, 10)
}
func (e *textEncoder) PutFloat(v float32) {
	e.sep()
	e.buf = strconv.AppendFloat(e.buf, float64(v), 'g', -1, 32)
}
func (e *textEncoder) PutDouble(v float64) {
	e.sep()
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
}
func (e *textEncoder) PutChar(v rune) {
	e.sep()
	e.buf = strconv.AppendQuoteRune(e.buf, v)
}
func (e *textEncoder) PutString(v string) {
	e.sep()
	e.buf = appendQuoted(e.buf, v)
}
func (e *textEncoder) Begin(tag string) {
	e.sep()
	e.buf = append(e.buf, '{')
	e.buf = append(e.buf, tag...)
}
func (e *textEncoder) End() {
	e.sep()
	e.buf = append(e.buf, '}')
}
func (e *textEncoder) Bytes() []byte { return e.buf }
func (e *textEncoder) Reset()        { e.buf = e.buf[:0] }

// textDecoder tokenizes an encoded body in place. buf may view a leased read
// buffer: numbers are parsed straight out of it, and the strings handed out
// are copies (slab for values, intern table for composite tags), so nothing
// decoded aliases the buffer once the lease returns.
type textDecoder struct {
	buf   []byte
	off   int
	arena strArena
}

// Reset implements Decoder. The string slab carries over: strings of the
// next body share it.
func (d *textDecoder) Reset(body []byte) { d.buf, d.off = body, 0 }

// next returns the next token as a view into buf; d.off is left just past it.
func (d *textDecoder) next() ([]byte, error) {
	for d.off < len(d.buf) && d.buf[d.off] == ' ' {
		d.off++
	}
	s := d.buf[d.off:]
	if len(s) == 0 {
		return nil, errTruncated("token", d.off)
	}
	n := bytes.IndexByte(s, ' ')
	if n < 0 {
		n = len(s)
	}
	// Quoted tokens may contain spaces.
	if s[0] == '"' || s[0] == '\'' {
		var err error
		if n, err = quotedLen(s); err != nil {
			return nil, fmt.Errorf("wire: bad quoted token at offset %d: %w", d.off, err)
		}
	}
	d.off += n
	return s[:n], nil
}

// quotedLen returns the length of the leading quoted token of s (Go string
// or rune quoting).
func quotedLen(s []byte) (int, error) {
	quote := s[0]
	if quote == '"' {
		// Fast path: both scans below are vectorized memchr. If the first
		// closing quote has no backslash anywhere before it, no escape can
		// reach it and the token ends there.
		if j := bytes.IndexByte(s[1:], '"'); j >= 0 && bytes.IndexByte(s[1:1+j], '\\') < 0 {
			return j + 2, nil
		}
	}
	// Find the closing unescaped quote directly; malformed escapes are
	// caught when the token is unquoted. strconv.QuotedPrefix decodes every
	// rune on the way, which the hot path does not need.
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case quote:
			return i + 1, nil
		}
	}
	if quote == '"' {
		return 0, fmt.Errorf("unterminated string literal")
	}
	return 0, fmt.Errorf("unterminated rune literal")
}

func (d *textDecoder) GetBool() (bool, error) {
	t, err := d.next()
	if err != nil {
		return false, err
	}
	switch string(t) {
	case "T":
		return true, nil
	case "F":
		return false, nil
	}
	return false, fmt.Errorf("wire: bad boolean token %s", excerpt(t))
}

// The string(t) conversions handed to strconv below do not escape, so number
// tokens (at most 32 bytes unless malformed) are parsed without allocating.

func (d *textDecoder) int(bits int) (int64, error) {
	t, err := d.next()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(t), 10, bits)
	if err != nil {
		return 0, fmt.Errorf("wire: bad integer token %s", excerpt(t))
	}
	return n, nil
}

func (d *textDecoder) uint(bits int) (uint64, error) {
	t, err := d.next()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(string(t), 10, bits)
	if err != nil {
		return 0, fmt.Errorf("wire: bad unsigned token %s", excerpt(t))
	}
	return n, nil
}

func (d *textDecoder) GetOctet() (byte, error) {
	n, err := d.uint(8)
	return byte(n), err
}
func (d *textDecoder) GetShort() (int16, error) {
	n, err := d.int(16)
	return int16(n), err
}
func (d *textDecoder) GetUShort() (uint16, error) {
	n, err := d.uint(16)
	return uint16(n), err
}
func (d *textDecoder) GetLong() (int32, error) {
	n, err := d.int(32)
	return int32(n), err
}
func (d *textDecoder) GetULong() (uint32, error) {
	n, err := d.uint(32)
	return uint32(n), err
}
func (d *textDecoder) GetLongLong() (int64, error) { return d.int(64) }
func (d *textDecoder) GetULongLong() (uint64, error) {
	return d.uint(64)
}

func (d *textDecoder) float(bits int, what string) (float64, error) {
	t, err := d.next()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(t), bits)
	if err != nil {
		return 0, fmt.Errorf("wire: bad %s token %s", what, excerpt(t))
	}
	return f, nil
}

func (d *textDecoder) GetFloat() (float32, error) {
	f, err := d.float(32, "float")
	return float32(f), err
}

func (d *textDecoder) GetDouble() (float64, error) { return d.float(64, "double") }

func (d *textDecoder) GetChar() (rune, error) {
	t, err := d.next()
	if err != nil {
		return 0, err
	}
	s, err := strconv.Unquote(string(t))
	if err != nil || s == "" {
		return 0, fmt.Errorf("wire: bad char token %s", excerpt(t))
	}
	r, _ := utf8.DecodeRuneInString(s)
	return r, nil
}

func (d *textDecoder) GetString() (string, error) {
	t, err := d.next()
	if err != nil {
		return "", err
	}
	tooLong := func() (string, error) {
		return "", fmt.Errorf("wire: string exceeds %d bytes", MaxStringLen)
	}
	if plainQuoted(t) {
		if len(t)-2 > MaxStringLen {
			return tooLong()
		}
		return d.arena.str(d.buf, d.off-len(t)+1, len(t)-2), nil
	}
	// Escapes to undo: Unquote builds its own result.
	s, err := strconv.Unquote(string(t))
	if err != nil {
		return "", fmt.Errorf("wire: bad string token %s", excerpt(t))
	}
	if len(s) > MaxStringLen {
		return tooLong()
	}
	return s, nil
}

func (d *textDecoder) BeginGet() (string, error) {
	t, err := d.next()
	if err != nil {
		return "", err
	}
	if t[0] != '{' {
		return "", fmt.Errorf("wire: expected composite begin, got %s", excerpt(t))
	}
	return intern(t[1:]), nil
}

func (d *textDecoder) EndGet() error {
	t, err := d.next()
	if err != nil {
		return err
	}
	if string(t) != "}" {
		return fmt.Errorf("wire: expected composite end, got %s", excerpt(t))
	}
	return nil
}

func (d *textDecoder) Remaining() int {
	return len(bytes.TrimLeft(d.buf[d.off:], " "))
}
