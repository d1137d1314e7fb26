package wire

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

var protocols = []Protocol{Text, CDR, CDRLittle}

func TestMessageRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: MsgRequest, RequestID: 1, TargetRef: "@tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0", Method: "f"},
		{Type: MsgRequest, RequestID: 42, TargetRef: "@tcp:h:1#2#IDL:X:1.0", Method: "ping", Oneway: true},
		{Type: MsgReply, RequestID: 42, Status: StatusOK},
		{Type: MsgReply, RequestID: 7, Status: StatusUnknownMethod, ErrMsg: "no method \"zap\""},
		{Type: MsgReply, RequestID: 8, Status: StatusSystemError, ErrMsg: "boom with spaces and \n newline"},
		{Type: MsgClose},
		{Type: MsgPing, RequestID: 77},
		{Type: MsgPong, RequestID: 77},
		{Type: MsgPing, RequestID: 0},
	}
	for _, p := range protocols {
		for _, m := range msgs {
			var buf bytes.Buffer
			if err := p.WriteMessage(&buf, m); err != nil {
				t.Fatalf("%s: WriteMessage(%+v): %v", p.Name(), m, err)
			}
			got, err := p.ReadMessage(bufio.NewReader(&buf))
			if err != nil {
				t.Fatalf("%s: ReadMessage(%+v): %v", p.Name(), m, err)
			}
			if got.Type != m.Type || got.RequestID != m.RequestID ||
				got.TargetRef != m.TargetRef || got.Method != m.Method ||
				got.Oneway != m.Oneway || got.Status != m.Status || got.ErrMsg != m.ErrMsg {
				t.Errorf("%s: round trip %+v != %+v", p.Name(), got, m)
			}
		}
	}
}

func TestMessageWithBodyRoundTrip(t *testing.T) {
	for _, p := range protocols {
		enc := p.NewEncoder()
		enc.PutLong(-123)
		enc.PutString("hello world")
		enc.PutBool(true)
		enc.PutDouble(3.25)
		m := &Message{
			Type: MsgRequest, RequestID: 5,
			TargetRef: "@tcp:localhost:9#1#IDL:T:1.0", Method: "m",
			Body: enc.Bytes(),
		}
		var buf bytes.Buffer
		if err := p.WriteMessage(&buf, m); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got, err := p.ReadMessage(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		dec := p.NewDecoder(got.Body)
		if v, err := dec.GetLong(); err != nil || v != -123 {
			t.Errorf("%s: GetLong = %d, %v", p.Name(), v, err)
		}
		if v, err := dec.GetString(); err != nil || v != "hello world" {
			t.Errorf("%s: GetString = %q, %v", p.Name(), v, err)
		}
		if v, err := dec.GetBool(); err != nil || !v {
			t.Errorf("%s: GetBool = %v, %v", p.Name(), v, err)
		}
		if v, err := dec.GetDouble(); err != nil || v != 3.25 {
			t.Errorf("%s: GetDouble = %v, %v", p.Name(), v, err)
		}
	}
}

// TestCodecIdentityProperty: marshal∘unmarshal is the identity over
// generated primitive values, for every protocol.
func TestCodecIdentityProperty(t *testing.T) {
	for _, p := range protocols {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			f := func(b bool, o byte, s int16, us uint16, l int32, ul uint32,
				ll int64, ull uint64, f32 float32, f64 float64, str string) bool {
				if f32 != f32 || f64 != f64 { // skip NaN: not comparable with ==
					return true
				}
				enc := p.NewEncoder()
				enc.PutBool(b)
				enc.PutOctet(o)
				enc.PutShort(s)
				enc.PutUShort(us)
				enc.PutLong(l)
				enc.PutULong(ul)
				enc.PutLongLong(ll)
				enc.PutULongLong(ull)
				enc.PutFloat(f32)
				enc.PutDouble(f64)
				enc.PutString(str)

				dec := p.NewDecoder(enc.Bytes())
				gb, e1 := dec.GetBool()
				gOct, e2 := dec.GetOctet()
				gs, e3 := dec.GetShort()
				gus, e4 := dec.GetUShort()
				gl, e5 := dec.GetLong()
				gul, e6 := dec.GetULong()
				gll, e7 := dec.GetLongLong()
				gull, e8 := dec.GetULongLong()
				gf32, e9 := dec.GetFloat()
				gf64, e10 := dec.GetDouble()
				gstr, e11 := dec.GetString()
				for _, err := range []error{e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11} {
					if err != nil {
						return false
					}
				}
				return gb == b && gOct == o && gs == s && gus == us &&
					gl == l && gul == ul && gll == ll && gull == ull &&
					gf32 == f32 && gf64 == f64 && gstr == str && dec.Remaining() == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCharRoundTrip(t *testing.T) {
	for _, p := range protocols {
		for _, r := range []rune{'a', ' ', '\n', '\'', '"', '\\', 'λ', '中'} {
			enc := p.NewEncoder()
			enc.PutChar(r)
			dec := p.NewDecoder(enc.Bytes())
			got, err := dec.GetChar()
			if err != nil || got != r {
				t.Errorf("%s: char %q round trip = %q, %v", p.Name(), r, got, err)
			}
		}
	}
}

func TestCompositeStructuring(t *testing.T) {
	for _, p := range protocols {
		enc := p.NewEncoder()
		enc.Begin("StreamInfo")
		enc.PutString("movie")
		enc.PutLong(4500)
		enc.End()
		enc.Begin("") // sequence
		enc.PutULong(2)
		enc.PutLong(1)
		enc.PutLong(2)
		enc.End()

		dec := p.NewDecoder(enc.Bytes())
		if _, err := dec.BeginGet(); err != nil {
			t.Fatalf("%s: BeginGet: %v", p.Name(), err)
		}
		if v, _ := dec.GetString(); v != "movie" {
			t.Errorf("%s: %q", p.Name(), v)
		}
		if v, _ := dec.GetLong(); v != 4500 {
			t.Errorf("%s: %d", p.Name(), v)
		}
		if err := dec.EndGet(); err != nil {
			t.Fatalf("%s: EndGet: %v", p.Name(), err)
		}
		if _, err := dec.BeginGet(); err != nil {
			t.Fatal(err)
		}
		n, _ := dec.GetULong()
		if n != 2 {
			t.Errorf("%s: len %d", p.Name(), n)
		}
		for i := 0; i < int(n); i++ {
			if v, err := dec.GetLong(); err != nil || v != int32(i+1) {
				t.Errorf("%s: elem %d = %d, %v", p.Name(), i, v, err)
			}
		}
		if err := dec.EndGet(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTextProtocolHumanTypable locks in the paper's telnet-debugging
// property (§4.2): a request a human would type is parseable, and the
// rendered form of a simple call is a readable one-liner.
func TestTextProtocolHumanTypable(t *testing.T) {
	human := "call 1 @tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0 p 42\n"
	m, err := Text.ReadMessage(bufio.NewReader(strings.NewReader(human)))
	if err != nil {
		t.Fatalf("ReadMessage(human line): %v", err)
	}
	if m.Method != "p" || m.TargetRef != "@tcp:galaxy.nec.com:1234#9876#IDL:Heidi/A:1.0" {
		t.Errorf("parsed %+v", m)
	}
	dec := Text.NewDecoder(m.Body)
	if v, err := dec.GetLong(); err != nil || v != 42 {
		t.Errorf("body long = %d, %v", v, err)
	}

	enc := Text.NewEncoder()
	enc.PutString("hello")
	var buf bytes.Buffer
	err = Text.WriteMessage(&buf, &Message{
		Type: MsgRequest, RequestID: 2,
		TargetRef: "@tcp:h:1#3#IDL:Receiver:1.0", Method: "print",
		Body: enc.Bytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	want := "call 2 @tcp:h:1#3#IDL:Receiver:1.0 print \"hello\"\n"
	if line != want {
		t.Errorf("rendered %q, want %q", line, want)
	}
}

func TestTextMalformedMessages(t *testing.T) {
	bad := []string{
		"bogus 1 x y\n",
		"call notanumber @r m\n",
		"call 1\n",
		"ok notanumber\n",
		"err 1 0 \"status ok is not an error\"\n",
		"err 1 nope \"bad status\"\n",
	}
	for _, line := range bad {
		if _, err := Text.ReadMessage(bufio.NewReader(strings.NewReader(line))); err == nil {
			t.Errorf("ReadMessage(%q) succeeded, want error", line)
		}
	}
}

func TestTextDecoderErrors(t *testing.T) {
	cases := []struct {
		body string
		call func(Decoder) error
	}{
		{"", func(d Decoder) error { _, err := d.GetLong(); return err }},
		{"xyz", func(d Decoder) error { _, err := d.GetLong(); return err }},
		{"T", func(d Decoder) error { _, err := d.GetLong(); return err }},
		{"3", func(d Decoder) error { _, err := d.GetBool(); return err }},
		{"unquoted", func(d Decoder) error { _, err := d.GetString(); return err }},
		{`"unterminated`, func(d Decoder) error { _, err := d.GetString(); return err }},
		{"99999999999999999999", func(d Decoder) error { _, err := d.GetLong(); return err }},
		{"300", func(d Decoder) error { _, err := d.GetOctet(); return err }},
		{"}", func(d Decoder) error { _, err := d.BeginGet(); return err }},
		{"{x", func(d Decoder) error { return d.EndGet() }},
	}
	for _, c := range cases {
		if err := c.call(Text.NewDecoder([]byte(c.body))); err == nil {
			t.Errorf("decoding %q succeeded, want error", c.body)
		}
	}
}

// TestTextErrorsQuoteBoundedExcerpts feeds every text-codec error that quotes
// peer bytes a 1 MiB malformed field. A decode error travels back to the peer
// as a reply's ErrMsg, so each must quote an excerpt and the length, never the
// input: at most 256 bytes, however bad the bytes are to quote.
func TestTextErrorsQuoteBoundedExcerpts(t *testing.T) {
	junk := strings.Repeat("\xff", 1<<20) // four quoted characters a byte
	frame := func(line string) func() error {
		return func() error {
			_, err := Text.ReadMessage(bufio.NewReader(strings.NewReader(line + "\n")))
			return err
		}
	}
	body := func(b string, get func(Decoder) error) func() error {
		return func() error { return get(Text.NewDecoder([]byte(b))) }
	}
	cases := []struct {
		name string
		err  func() error
	}{
		{"ping id", frame("ping " + junk)},
		{"request id", frame("call " + junk + " @r m")},
		{"request missing method", frame("call 1 " + junk)},
		{"request deadline", frame("call 1 @r m @" + junk)},
		{"ok reply id", frame("ok " + junk)},
		{"err reply id", frame("err " + junk + ` 2 "x"`)},
		{"err status", frame("err 1 " + junk + ` "x"`)},
		{"verb", frame(junk + " 1")},
		{"deadline token", func() error { _, _, err, _ := deadlineToken([]byte("@" + junk)); return err }},
		{"boolean", body(junk, func(d Decoder) error { _, err := d.GetBool(); return err })},
		{"integer", body(junk, func(d Decoder) error { _, err := d.GetLong(); return err })},
		{"unsigned", body(junk, func(d Decoder) error { _, err := d.GetULong(); return err })},
		{"float", body(junk, func(d Decoder) error { _, err := d.GetDouble(); return err })},
		{"char", body(junk, func(d Decoder) error { _, err := d.GetChar(); return err })},
		{"string escape", body(`"\q`+junk+`"`, func(d Decoder) error { _, err := d.GetString(); return err })},
		{"composite begin", body(junk, func(d Decoder) error { _, err := d.BeginGet(); return err })},
		{"composite end", body(junk, func(d Decoder) error { return d.EndGet() })},
	}
	for _, c := range cases {
		err := c.err()
		switch {
		case err == nil:
			t.Errorf("%s: no error", c.name)
		case len(err.Error()) > 256:
			t.Errorf("%s: %d-byte error for a 1 MiB input, want <= 256", c.name, len(err.Error()))
		case !strings.Contains(err.Error(), " bytes)"):
			t.Errorf("%s: error does not come from the excerpt: %v", c.name, err)
		}
	}
}

func TestCDRTruncatedInputs(t *testing.T) {
	enc := CDR.NewEncoder()
	enc.PutLong(7)
	enc.PutString("hello")
	full := enc.Bytes()
	for cut := 0; cut < len(full); cut++ {
		dec := CDR.NewDecoder(full[:cut])
		_, err1 := dec.GetLong()
		_, err2 := dec.GetString()
		if err1 == nil && err2 == nil {
			t.Errorf("truncation at %d/%d not detected", cut, len(full))
		}
	}
}

func TestCDRHeaderValidation(t *testing.T) {
	valid := &Message{Type: MsgRequest, RequestID: 1, TargetRef: "@x#1#t", Method: "m"}
	var buf bytes.Buffer
	if err := CDR.WriteMessage(&buf, valid); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	corrupt := func(mutate func([]byte)) error {
		c := append([]byte(nil), frame...)
		mutate(c)
		_, err := CDR.ReadMessage(bufio.NewReader(bytes.NewReader(c)))
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = 'X' }); err == nil {
		t.Error("bad magic accepted")
	}
	if err := corrupt(func(b []byte) { b[4] = 9 }); err == nil {
		t.Error("bad version accepted")
	}
	if err := corrupt(func(b []byte) { b[5] = 200 }); err == nil {
		t.Error("bad msg type accepted")
	}
	if err := corrupt(func(b []byte) { b[15] = 0xFF; b[14] = 0xFF; b[13] = 0xFF }); err == nil {
		t.Error("oversized payload accepted")
	}
	// Truncated frame.
	if _, err := CDR.ReadMessage(bufio.NewReader(bytes.NewReader(frame[:len(frame)-2]))); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestCrossEndianInterop(t *testing.T) {
	// A little-endian writer's frame must be readable by the big-endian
	// protocol instance (byte order travels in the flags, as in GIOP).
	m := &Message{Type: MsgRequest, RequestID: 99, TargetRef: "@x#1#t", Method: "m"}
	var buf bytes.Buffer
	if err := CDRLittle.WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := CDR.ReadMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("big-endian reader rejected little-endian frame: %v", err)
	}
	if got.RequestID != 99 || got.Method != "m" {
		t.Errorf("got %+v", got)
	}
}

func TestCDRAlignment(t *testing.T) {
	enc := CDR.NewEncoder()
	enc.PutOctet(1) // offset 1
	enc.PutLong(2)  // must align to 4
	enc.PutOctet(3) // offset 9
	enc.PutDouble(4.5)
	b := enc.Bytes()
	if len(b) != 24 { // 1 + 3 pad + 4 + 1 + 7 pad + 8
		t.Errorf("aligned encoding length = %d, want 24", len(b))
	}
	dec := CDR.NewDecoder(b)
	if v, _ := dec.GetOctet(); v != 1 {
		t.Error("octet 1")
	}
	if v, _ := dec.GetLong(); v != 2 {
		t.Error("long 2")
	}
	if v, _ := dec.GetOctet(); v != 3 {
		t.Error("octet 3")
	}
	if v, _ := dec.GetDouble(); v != 4.5 {
		t.Error("double 4.5")
	}
}

func TestSpecialFloats(t *testing.T) {
	for _, p := range protocols {
		for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
			enc := p.NewEncoder()
			enc.PutDouble(v)
			got, err := p.NewDecoder(enc.Bytes()).GetDouble()
			if err != nil {
				t.Fatalf("%s: %v: %v", p.Name(), v, err)
			}
			if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				t.Errorf("%s: double %v round trip = %v", p.Name(), v, got)
			}
		}
		// NaN round trips to NaN.
		enc := p.NewEncoder()
		enc.PutDouble(math.NaN())
		got, err := p.NewDecoder(enc.Bytes()).GetDouble()
		if err != nil || !math.IsNaN(got) {
			t.Errorf("%s: NaN round trip = %v, %v", p.Name(), got, err)
		}
	}
}

func TestAdversarialStrings(t *testing.T) {
	evil := []string{
		"", " ", "two words", "line\nbreak", `quote"inside`, `back\slash`,
		"{brace}", "tab\there", "ref-like @tcp:h:1#2#IDL:X:1.0", "日本語",
		"call 1 fake injection attempt", strings.Repeat("x", 4096),
	}
	for _, p := range protocols {
		for _, s := range evil {
			enc := p.NewEncoder()
			enc.PutString(s)
			enc.PutLong(7) // sentinel: decoder must not over-consume
			dec := p.NewDecoder(enc.Bytes())
			got, err := dec.GetString()
			if err != nil || got != s {
				t.Errorf("%s: string %q round trip = %q, %v", p.Name(), s, got, err)
				continue
			}
			if v, err := dec.GetLong(); err != nil || v != 7 {
				t.Errorf("%s: sentinel after %q = %d, %v", p.Name(), s, v, err)
			}
		}
	}
}

// TestMessageSizeComparison documents the size relationship benchmark C2
// relies on: for small control messages the two encodings are within the
// same order of magnitude, and CDR does not balloon text the way a
// general-purpose protocol would balloon a custom one.
func TestMessageSizeComparison(t *testing.T) {
	mkBody := func(p Protocol) []byte {
		enc := p.NewEncoder()
		enc.PutString("movie.mpg")
		enc.PutLong(1500)
		return enc.Bytes()
	}
	sizes := map[string]int{}
	for _, p := range protocols[:2] { // text, cdr
		var buf bytes.Buffer
		err := p.WriteMessage(&buf, &Message{
			Type: MsgRequest, RequestID: 3,
			TargetRef: "@tcp:h:5000#12#IDL:Media/Source:1.0", Method: "open",
			Body: mkBody(p),
		})
		if err != nil {
			t.Fatal(err)
		}
		sizes[p.Name()] = buf.Len()
	}
	if sizes["text"] == 0 || sizes["cdr"] == 0 {
		t.Fatal("missing size")
	}
	t.Logf("request frame sizes: text=%dB cdr=%dB", sizes["text"], sizes["cdr"])
}

func BenchmarkEncodePrimitives(b *testing.B) {
	for _, p := range protocols[:2] {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := p.NewEncoder()
				for j := 0; j < 16; j++ {
					enc.PutLong(int32(j))
				}
				enc.PutString("payload string")
				_ = enc.Bytes()
			}
		})
	}
}

func BenchmarkMessageRoundTrip(b *testing.B) {
	for _, p := range protocols[:2] {
		b.Run(p.Name(), func(b *testing.B) {
			enc := p.NewEncoder()
			enc.PutString("movie.mpg")
			enc.PutLong(1500)
			m := &Message{
				Type: MsgRequest, RequestID: 3,
				TargetRef: "@tcp:h:5000#12#IDL:Media/Source:1.0", Method: "open",
				Body: enc.Bytes(),
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := p.WriteMessage(&buf, m); err != nil {
					b.Fatal(err)
				}
				if _, err := p.ReadMessage(bufio.NewReader(&buf)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
