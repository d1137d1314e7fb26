package heidi

import (
	"fmt"
	"sort"
	"sync"
)

// Writer is the primitive-marshaling surface an HdSerializable object
// writes its state to. The ORB's Call objects implement it for each wire
// protocol (§3.1: "The ORB run-time utilizes marshaling/unmarshaling
// primitives that the object implementation may have provided").
type Writer interface {
	PutBool(v bool)
	PutOctet(v byte)
	PutShort(v int16)
	PutUShort(v uint16)
	PutLong(v int32)
	PutULong(v uint32)
	PutLongLong(v int64)
	PutULongLong(v uint64)
	PutFloat(v float32)
	PutDouble(v float64)
	PutChar(v rune)
	PutString(v string)
	// Begin/End demarcate a composite value (struct or sequence), the
	// Call object's structuring functions from §3.1.
	Begin(tag string)
	End()
}

// Reader is the unmarshaling counterpart of Writer. Implementations return
// an error on malformed or truncated input rather than panicking.
type Reader interface {
	GetBool() (bool, error)
	GetOctet() (byte, error)
	GetShort() (int16, error)
	GetUShort() (uint16, error)
	GetLong() (int32, error)
	GetULong() (uint32, error)
	GetLongLong() (int64, error)
	GetULongLong() (uint64, error)
	GetFloat() (float32, error)
	GetDouble() (float64, error)
	GetChar() (rune, error)
	GetString() (string, error)
	BeginGet() (string, error)
	EndGet() error
	// Remaining reports how many unconsumed bytes of the body are left.
	Remaining() int
}

// GetSeqLen reads a sequence's element count and refuses one the rest of the
// body cannot hold. The count comes off the wire and sizes an allocation;
// every element occupies at least one byte in every encoding, so a count
// above Remaining is malformed whatever follows — and must fail here, as an
// ordinary unmarshal error, not in make() as an out-of-memory crash.
func GetSeqLen(r Reader) (int, error) {
	n, err := r.GetULong()
	if err != nil {
		return 0, err
	}
	if rem := r.Remaining(); uint64(n) > uint64(rem) {
		return 0, fmt.Errorf("heidi: sequence length %d exceeds the %d bytes left in the body", n, rem)
	}
	return int(n), nil
}

// Serializable is the HdSerializable contract: an object that can marshal
// its own state, making it eligible for pass-by-value across an incopy
// parameter. "Whether a particular object has actually implemented the
// required marshaling/unmarshaling primitives is determined by testing if
// it implements the HdSerializable interface" (§3.1).
type Serializable interface {
	// HdTypeName returns the dynamic type name registered with
	// RegisterType, so the receiving address space can instantiate the
	// right implementation class.
	HdTypeName() string
	// HdMarshal writes the object state.
	HdMarshal(w Writer) error
	// HdUnmarshal replaces the object state.
	HdUnmarshal(r Reader) error
}

// Factory creates a fresh, empty instance of a registered dynamic type.
type Factory func() Serializable

var (
	typeMu    sync.RWMutex
	typeReg   = map[string]Factory{}
	typeOrder []string
)

// RegisterType adds a dynamic type to Heidi's type registry (the "dynamic
// type checking support that is implemented in Heidi", §3.1). Registering
// the same name twice panics: it indicates conflicting class definitions.
func RegisterType(name string, f Factory) {
	typeMu.Lock()
	defer typeMu.Unlock()
	if _, dup := typeReg[name]; dup {
		panic(fmt.Sprintf("heidi: duplicate type registration %q", name))
	}
	typeReg[name] = f
	typeOrder = append(typeOrder, name)
}

// NewInstance instantiates a registered dynamic type by name.
func NewInstance(name string) (Serializable, error) {
	typeMu.RLock()
	f, ok := typeReg[name]
	typeMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("heidi: unknown dynamic type %q", name)
	}
	return f(), nil
}

// HasType reports whether a dynamic type name is registered.
func HasType(name string) bool {
	typeMu.RLock()
	defer typeMu.RUnlock()
	_, ok := typeReg[name]
	return ok
}

// Types returns the registered type names, sorted.
func Types() []string {
	typeMu.RLock()
	defer typeMu.RUnlock()
	out := append([]string(nil), typeOrder...)
	sort.Strings(out)
	return out
}

// IsSerializable reports whether v supports pass-by-value, the dynamic
// check HeidiRMI performs on every incopy argument.
func IsSerializable(v any) (Serializable, bool) {
	s, ok := v.(Serializable)
	return s, ok
}
