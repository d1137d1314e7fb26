// Package wire defines HeidiRMI's on-the-wire representation: the Message
// envelope exchanged between address spaces and the Protocol abstraction
// that renders messages and call bodies in a concrete encoding.
//
// Two protocols are provided, matching the paper's positioning of the ORB
// protocol as a configurable aspect (§2 "Customizing the ORB Protocol and
// Messaging Formats", §4.2):
//
//   - Text: "a newline terminated string of ASCII characters" (§3.1) that a
//     human can type into the bootstrap port with telnet — the debugging
//     trick §4.2 recounts.
//   - CDR: a compact aligned binary encoding in the style of GIOP/IIOP,
//     with configurable byte order, standing in for the "general-purpose"
//     standard protocol the paper contrasts with.
//
// The Encoder/Decoder pair is the paper's Call marshaling surface: "the
// functions for marshaling and unmarshaling all primitive data types, as
// well as additional begin and end functions that permit structuring of the
// call request so that such composite data types as structs or sequences
// can be easily represented" (§3.1).
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/heidi"
)

// MsgType discriminates messages on a connection.
type MsgType byte

// Message types.
const (
	MsgRequest MsgType = iota + 1
	MsgReply
	MsgClose
	// MsgGoAway announces that the sending address space is draining: the
	// peer should stop submitting new requests on this connection (replies
	// to requests already in flight still arrive) and re-resolve the
	// endpoint before its next call. It is the wire image of a graceful
	// server shutdown, in the HTTP/2 GOAWAY tradition.
	MsgGoAway
	// MsgHello is the protocol-negotiation frame: the first frame a
	// feature-aware client sends on a fresh connection, answered by a
	// feature-aware server with the intersection of both offers. Its Body
	// carries a Hello payload (see hello.go) in a codec-independent ASCII
	// form, so both codecs ferry it without caring about its contents. A
	// legacy peer that predates negotiation either errors the connection
	// (CDR: unknown type) or silently drops the frame (text server loop);
	// the dialer treats both as "speak the static configuration".
	MsgHello
	// MsgPing is a liveness probe: "is anyone still reading this
	// connection?" The receiver answers with a MsgPong echoing the ping's
	// RequestID. Pings are negotiated (FeatureKeepalive) so a legacy peer
	// never sees the unknown frame; they carry no body and are answered
	// out of band — a ping never enters the request dispatch path.
	MsgPing
	// MsgPong answers a MsgPing, echoing its RequestID. Receiving a pong
	// (or any other frame) proves the peer's read loop is alive.
	MsgPong
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "request"
	case MsgReply:
		return "reply"
	case MsgClose:
		return "close"
	case MsgGoAway:
		return "goaway"
	case MsgHello:
		return "hello"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	}
	return fmt.Sprintf("msgtype(%d)", byte(t))
}

// ReplyStatus is the outcome carried by a reply message.
type ReplyStatus byte

// Reply statuses.
const (
	StatusOK ReplyStatus = iota
	StatusUserException
	StatusSystemError
	StatusUnknownMethod
	StatusUnknownObject
	// StatusDeadlineExceeded reports that the request's propagated
	// deadline expired before (or while) the servant ran; the caller has
	// already given up, so retrying is pointless.
	StatusDeadlineExceeded
	// StatusOverloaded reports that the server shed the request without
	// dispatching it (admission control); nothing was processed, so the
	// request is safe to retry elsewhere or after backoff.
	StatusOverloaded
)

// String names the reply status.
func (s ReplyStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusUserException:
		return "user-exception"
	case StatusSystemError:
		return "system-error"
	case StatusUnknownMethod:
		return "unknown-method"
	case StatusUnknownObject:
		return "unknown-object"
	case StatusDeadlineExceeded:
		return "deadline-exceeded"
	case StatusOverloaded:
		return "overloaded"
	}
	return fmt.Sprintf("status(%d)", byte(s))
}

// Message is one request, reply or close notification. The stringified
// object reference of the target "forms the header of the Call" (§3.1).
type Message struct {
	Type      MsgType
	RequestID uint32

	// Request fields.
	TargetRef string // stringified object reference
	Method    string
	Oneway    bool // no reply expected
	// Deadline is the caller's remaining patience in milliseconds,
	// relative to receipt (relative, so clocks need not be synchronized);
	// zero means unbounded — the seed behavior, and the only shape the
	// seed codecs emit. Servers use it to shed work whose caller has
	// already given up.
	Deadline uint32

	// Reply fields.
	Status ReplyStatus
	ErrMsg string // for non-OK statuses

	// Body carries the protocol-encoded parameters or results. On messages
	// produced by ReadMessage it may be a view into a pooled, refcounted
	// read buffer (see lease.go): holders release it via ReleaseBody or
	// FreeMessage when the call completes.
	Body []byte

	// Static marks a caller-owned Message that FreeMessage must not return
	// to the pool: the owner embeds the struct and reuses it across calls
	// (the collocated fast path fabricates replies this way), so recycling
	// it would alias one struct between the pool and its owner.
	Static bool

	// lease is the pooled buffer Body aliases, nil when Body is owned
	// outright (encoder output, literals, copies).
	lease *bodyLease
}

// Encoder marshals one call body. It extends the heidi.Writer primitive
// surface (so HdSerializable objects can marshal themselves into a call)
// with the remaining IDL primitive types.
type Encoder interface {
	heidi.Writer
	// Bytes returns the encoded body. The encoder remains usable.
	Bytes() []byte
	// Reset discards accumulated output, keeping capacity, so one encoder
	// serves many calls (the pooled-call hot path).
	Reset()
}

// Decoder unmarshals one call body, mirroring Encoder.
type Decoder interface {
	heidi.Reader
	// Reset re-targets the decoder at a new encoded body, so one decoder
	// serves many calls (the pooled-call hot path).
	Reset(body []byte)
}

// Protocol renders messages and call bodies in one concrete encoding. A
// Protocol must be safe for concurrent use; encoders and decoders it
// creates are not.
type Protocol interface {
	// Name identifies the protocol in object references and diagnostics
	// ("text", "cdr", "cdr-le").
	Name() string
	// WriteMessage renders m (including its Body) onto w.
	WriteMessage(w io.Writer, m *Message) error
	// AppendMessage appends m's encoded frame to dst and returns the
	// extended slice. Frames are self-contained: appending several then
	// writing the result (or writing the per-frame slices as one gathered
	// write) is equivalent to sequential WriteMessage calls. This is the
	// primitive beneath write coalescing.
	AppendMessage(dst []byte, m *Message) ([]byte, error)
	// ReadMessage reads the next message from r. The returned message is
	// pooled and its Body may view a pooled read buffer: the consumer owns
	// it and releases it with FreeMessage when the call completes.
	ReadMessage(r *bufio.Reader) (*Message, error)
	// NewEncoder returns an empty body encoder.
	NewEncoder() Encoder
	// NewDecoder returns a decoder over an encoded body.
	NewDecoder(body []byte) Decoder
}

// Limits applied by both protocols while decoding untrusted input.
const (
	// MaxBodyLen bounds a single message body.
	MaxBodyLen = 16 << 20
	// MaxStringLen bounds a single marshaled string.
	MaxStringLen = 8 << 20
)

// ErrClosed is returned when reading from a connection whose peer sent a
// close message or shut the stream down cleanly.
var ErrClosed = errors.New("wire: connection closed")

// framePool recycles the scratch buffers WriteMessage implementations
// assemble frames in. The buffer never escapes the write (it is handed to
// w.Write and returned), so pooling is safe; it removes the dominant
// per-message allocation on the invocation hot path.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// maxPooledFrame keeps one giant payload from pinning a huge buffer in the
// pool forever.
const maxPooledFrame = 64 << 10

// getFrame returns an empty scratch buffer.
func getFrame() *[]byte {
	return framePool.Get().(*[]byte)
}

// putFrame recycles a scratch buffer obtained from getFrame.
func putFrame(b *[]byte) {
	if cap(*b) > maxPooledFrame {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

// errTruncated builds a descriptive truncation error.
func errTruncated(what string, off int) error {
	return fmt.Errorf("wire: truncated %s at offset %d: %w", what, off, io.ErrUnexpectedEOF)
}
