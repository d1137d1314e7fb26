// Package demo provides ready-made servants for the Media control module
// (idl/media.idl), used by the example programs and the orbd demo server.
// It plays the role of the "existing Heidi code-base" of §3 of the paper:
// plain Go objects with no generated-code ancestry, bridged to the ORB by
// the delegation skeletons the Go mapping produces.
package demo

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/gen/media"
	"repro/internal/heidi"
	"repro/internal/orb"
)

// Session is a Media::Session servant managing a small catalogue of
// streams. It is safe for concurrent use.
type Session struct {
	name string

	mu       sync.Mutex
	state    media.HdStreamState
	volume   int32
	current  string
	streams  map[string]*media.HdStreamInfo
	prefetch []string
	configs  []*media.HdStreamInfo
}

// NewSession creates a session named name with a default stream catalogue.
func NewSession(name string) *Session {
	s := &Session{
		name:    name,
		state:   media.HdStreamStateStopped,
		streams: make(map[string]*media.HdStreamInfo),
	}
	s.AddStream(&media.HdStreamInfo{Name: "news.mpg", BitrateKbps: 1500, FrameRate: 25, HasAudio: heidi.XTrue})
	s.AddStream(&media.HdStreamInfo{Name: "concert.mpg", BitrateKbps: 4500, FrameRate: 30, HasAudio: heidi.XTrue})
	s.AddStream(&media.HdStreamInfo{Name: "slides.mpg", BitrateKbps: 400, FrameRate: 10, HasAudio: heidi.XFalse})
	return s
}

// AddStream adds a stream to the catalogue.
func (s *Session) AddStream(info *media.HdStreamInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streams[info.Name] = info
}

// Ping implements Media::Node.
func (s *Session) Ping() error { return nil }

// GetName implements the Media::Node name attribute.
func (s *Session) GetName() (string, error) { return s.name, nil }

// List implements Media::Source.
func (s *Session) List() (media.HdStreamInfoSeq, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(media.HdStreamInfoSeq, 0, len(s.streams))
	for _, info := range s.streams {
		out = append(out, info)
	}
	slices.SortFunc(out, func(a, b *media.HdStreamInfo) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// Open implements Media::Source; unknown names raise
// Media::NoSuchStream.
func (s *Session) Open(name string, offsetMs int32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.streams[name]; !ok {
		return &media.HdNoSuchStream{Name: name}
	}
	s.current = name
	return nil
}

// Prefetch implements the oneway Media::Source operation.
func (s *Session) Prefetch(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prefetch = append(s.prefetch, name)
	return nil
}

// Prefetched returns the names passed to Prefetch so far.
func (s *Session) Prefetched() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.prefetch...)
}

// Configure implements Media::Sink; info arrives by value (incopy).
func (s *Session) Configure(info *media.HdStreamInfo, exclusive heidi.XBool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.configs = append(s.configs, info)
	return nil
}

// Configs returns the StreamInfo values received via Configure.
func (s *Session) Configs() []*media.HdStreamInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*media.HdStreamInfo(nil), s.configs...)
}

// GetVolume implements the Media::Sink volume attribute.
func (s *Session) GetVolume() (int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.volume, nil
}

// SetVolume implements the Media::Sink volume attribute.
func (s *Session) SetVolume(v int32) error {
	if v < 0 || v > 100 {
		return fmt.Errorf("volume %d out of range [0,100]", v)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.volume = v
	return nil
}

// State implements Media::Session.
func (s *Session) State() (media.HdStreamState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, nil
}

// Play implements Media::Session.
func (s *Session) Play(name string, initial media.HdStreamState) error {
	if err := s.Open(name, 0); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = initial
	return nil
}

// Stop implements Media::Session.
func (s *Session) Stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = media.HdStreamStateStopped
	s.current = ""
	return nil
}

var valuesOnce sync.Once

// Serve starts an ORB with the given options, exports a Session servant
// under it and returns the ORB, the session's reference and the servant.
func Serve(opts orb.Options, sessionName string) (*orb.ORB, orb.ObjectRef, *Session, error) {
	valuesOnce.Do(media.RegisterMediaValues)
	o := orb.New(opts)
	if err := o.Start(); err != nil {
		return nil, orb.ObjectRef{}, nil, err
	}
	impl := NewSession(sessionName)
	ref, err := o.Export(impl, media.NewHdSessionTable(impl))
	if err != nil {
		o.Shutdown()
		return nil, orb.ObjectRef{}, nil, err
	}
	media.RegisterMediaStubs(o)
	return o, ref, impl, nil
}

// Connect creates a client ORB with the media stubs registered.
func Connect(opts orb.Options) *orb.ORB {
	valuesOnce.Do(media.RegisterMediaValues)
	o := orb.New(opts)
	media.RegisterMediaStubs(o)
	return o
}
