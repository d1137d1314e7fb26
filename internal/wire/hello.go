package wire

import (
	"fmt"
	"strconv"
	"strings"
)

// Protocol negotiation payload (§2: the ORB protocol is a customization
// axis — here the two ends *agree* on the axis settings instead of being
// configured in lockstep).
//
// The payload rides in a MsgHello frame's Body as one ASCII line:
//
//	HRMI/1 feat=5 codecs=cdr,text
//
// It is deliberately codec-independent: the hello is the frame that decides
// which codec and features the connection will use, so its own encoding
// cannot depend on that outcome. ASCII also keeps it debuggable through the
// telnet trick (§4.2) on the text protocol.

// HelloVersion is the negotiation protocol version this build speaks.
const HelloVersion = 1

// helloMagic leads every hello payload; a frame that carries anything else
// is malformed and the peer falls back to static configuration.
const helloMagic = "HRMI/"

// Hello payload bounds. Real offers are ~40 bytes naming one or two codecs,
// but a hello arrives before admission on every started ORB, so its body is
// wire-supplied and up to MaxBodyLen long. Anything larger than maxHelloLen,
// or listing more than maxHelloCodecs codecs, is malformed — rejected before
// it is copied or split, so one frame cannot make the parser allocate a
// multiple of its size.
const (
	maxHelloLen    = 256
	maxHelloCodecs = 8
)

// Feature is a bitset of optional wire features a peer supports. A feature
// is used on a connection only when both ends advertise it.
type Feature uint32

// Wire features negotiable via the hello frame.
const (
	// FeatureCoalesce: the peer accepts coalesced (batched) frames — many
	// frames per TCP segment with no alignment between segment and frame
	// boundaries. Every stream codec here technically tolerates that, but
	// legacy interactive peers (the telnet debugging trick) want one frame
	// per line-turnaround, so batching is negotiated.
	FeatureCoalesce Feature = 1 << iota
	// FeatureDeadline: the peer understands the request deadline header
	// (text `@<ms>` token, CDR flag bit 2). Without it the client keeps
	// deadlines local (timers still fire) but stamps no header.
	FeatureDeadline
	// FeatureCompactV3: reserved for the future compact-binary v3 codec.
	// Advertised by nobody yet; exists so a v3-speaking build can probe for
	// it without a new handshake revision.
	FeatureCompactV3
	// FeatureKeepalive: the peer understands MsgPing/MsgPong liveness
	// frames (answers pings, tolerates pongs). Without it the client
	// never emits a ping on the connection — a legacy CDR peer would
	// error the whole connection on the unknown type, and a legacy text
	// server would log an unknown verb.
	FeatureKeepalive
)

// knownFeatures masks the bits this build understands; unknown bits from a
// newer peer are ignored (and never echoed, so the intersection property
// holds from the newer peer's point of view too).
const knownFeatures = FeatureCoalesce | FeatureDeadline | FeatureCompactV3 | FeatureKeepalive

// String renders the set mnemonically for diagnostics.
func (f Feature) String() string {
	if f == 0 {
		return "none"
	}
	var parts []string
	if f&FeatureCoalesce != 0 {
		parts = append(parts, "coalesce")
	}
	if f&FeatureDeadline != 0 {
		parts = append(parts, "deadline")
	}
	if f&FeatureCompactV3 != 0 {
		parts = append(parts, "compact-v3")
	}
	if f&FeatureKeepalive != 0 {
		parts = append(parts, "keepalive")
	}
	if rest := f &^ knownFeatures; rest != 0 {
		parts = append(parts, fmt.Sprintf("unknown(%#x)", uint32(rest)))
	}
	return strings.Join(parts, "+")
}

// Hello is a negotiation offer or answer.
type Hello struct {
	// Version of the negotiation protocol. A server answering a newer
	// client replies with its own (lower) version; the connection then
	// speaks the older dialect.
	Version uint32
	// Features the sender supports (offer) or both ends share (answer).
	Features Feature
	// Codecs the sender can speak, in preference order ("cdr", "text").
	// The answer lists the intersection, preference order of the server.
	Codecs []string
}

// Encode renders the payload for a MsgHello body.
func (h Hello) Encode() []byte {
	b := make([]byte, 0, 48)
	b = append(b, helloMagic...)
	b = strconv.AppendUint(b, uint64(h.Version), 10)
	b = append(b, " feat="...)
	b = strconv.AppendUint(b, uint64(h.Features), 10)
	if len(h.Codecs) > 0 {
		b = append(b, " codecs="...)
		for i, c := range h.Codecs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, c...)
		}
	}
	return b
}

// ParseHello decodes a MsgHello body. Any malformation is an error: the
// caller falls back to static configuration rather than guessing.
func ParseHello(body []byte) (Hello, error) {
	var h Hello
	if len(body) > maxHelloLen {
		return h, fmt.Errorf("wire: hello: %d-byte payload exceeds %d", len(body), maxHelloLen)
	}
	s := string(body)
	if !strings.HasPrefix(s, helloMagic) {
		return h, fmt.Errorf("wire: hello: bad magic %.8q", s)
	}
	fields := strings.Fields(s[len(helloMagic):])
	if len(fields) == 0 {
		return h, fmt.Errorf("wire: hello: missing version")
	}
	v, err := strconv.ParseUint(fields[0], 10, 32)
	if err != nil || v == 0 {
		return h, fmt.Errorf("wire: hello: bad version %q", fields[0])
	}
	h.Version = uint32(v)
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return h, fmt.Errorf("wire: hello: bad field %q", f)
		}
		switch key {
		case "feat":
			n, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return h, fmt.Errorf("wire: hello: bad feat %q", val)
			}
			h.Features = Feature(n)
		case "codecs":
			if n := strings.Count(val, ",") + 1; n > maxHelloCodecs {
				return h, fmt.Errorf("wire: hello: %d codecs exceed %d", n, maxHelloCodecs)
			}
			if val != "" {
				h.Codecs = strings.Split(val, ",")
			}
		default:
			// Unknown keys from newer peers are skipped, not rejected:
			// adding a field must not break the installed base.
		}
	}
	return h, nil
}

// Intersect computes the server's answer to a client offer: the shared
// feature set (masked to what this build knows), the lower version, and the
// codec list filtered to what both ends speak, in the answerer's preference
// order.
func (h Hello) Intersect(offer Hello) Hello {
	ans := Hello{
		Version:  h.Version,
		Features: h.Features & offer.Features & knownFeatures,
	}
	if offer.Version < ans.Version {
		ans.Version = offer.Version
	}
	for _, c := range h.Codecs {
		for _, oc := range offer.Codecs {
			if c == oc {
				ans.Codecs = append(ans.Codecs, c)
				break
			}
		}
	}
	return ans
}

// HasCodec reports whether name is in the codec list.
func (h Hello) HasCodec(name string) bool {
	for _, c := range h.Codecs {
		if c == name {
			return true
		}
	}
	return false
}
