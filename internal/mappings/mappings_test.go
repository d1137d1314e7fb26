package mappings

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/est"
	"repro/internal/idl"
	"repro/internal/idl/idltest"
	"repro/internal/jeeves"
)

func buildEST(t testing.TB, file, src string) *est.Node {
	t.Helper()
	spec, err := idl.Parse(file, src)
	if err != nil {
		t.Fatalf("Parse(%s): %v", file, err)
	}
	return est.Build(spec)
}

func generate(t testing.TB, m *Mapping, file, src string) *jeeves.MemOutput {
	t.Helper()
	root := buildEST(t, file, src)
	if m == GoMapping {
		EnsureGoPackage(root, "")
	}
	out, err := m.Generate(root)
	if err != nil {
		t.Fatalf("%s.Generate: %v", m.Name, err)
	}
	return out
}

// TestFig3GeneratedHeader locks the HeidiRMI C++ interface header for the
// paper's A.idl to the exact shape of Fig. 3: Heidi data types only (no
// CORBA types), Hd-prefixed class names, default parameters (TRUE mapped
// to XTrue, Heidi::Start unqualified), the HdList/HdListIterator typedefs
// and the GetButton accessor.
func TestFig3GeneratedHeader(t *testing.T) {
	out := generate(t, HeidiCPP, "A.idl", idltest.AIDL)
	const want = `/* File A.hh */
// IDL:Heidi/Status:1.0
enum HdStatus { Start, Stop };

// IDL:Heidi/SSequence:1.0
typedef HdList<HdS> HdSSequence;
typedef HdListIterator<HdS> HdSSequenceIter;

// IDL:Heidi/A:1.0
class HdA :
    virtual public HdS
{
public:
  virtual void f(HdA*) = 0;
  virtual void g(HdS*) = 0;
  virtual void p(long l = 0) = 0;
  virtual void q(HdStatus s = Start) = 0;
  virtual void s(XBool b = XTrue) = 0;
  virtual void t(HdSSequence*) = 0;
  virtual HdStatus GetButton() = 0;
  virtual ~HdA() { }
};
`
	if got := out.File("A.hh"); got != want {
		t.Errorf("A.hh differs from Fig. 3 golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// No CORBA-specific types anywhere (the mapping's whole point).
	if strings.Contains(out.File("A.hh"), "CORBA") {
		t.Error("HeidiRMI header mentions CORBA types")
	}
}

// TestFig2DelegationModel verifies the stub/skeleton shapes of Fig. 2: the
// stub is-a interface class; the skeleton holds the implementation by
// pointer and is unrelated to the interface class, delegating unmatched
// dispatch to base skeletons (Fig. 5).
func TestFig2DelegationModel(t *testing.T) {
	out := generate(t, HeidiCPP, "A.idl", idltest.AIDL)
	rmi := out.File("A_rmi.hh")
	for _, want := range []string{
		"class HdA_stub :",
		"virtual public HdS_stub,",
		"virtual public HdA,",   // stub is-a interface
		"virtual public HdStub", // generic stub base
		"class HdA_skel :",
		"public HdS_skel",                           // skeleton mirrors IDL inheritance
		"HdA* _impl;",                               // delegation: holds the implementation
		"if (HdS_skel::Dispatch(_c)) return XTrue;", // recursive dispatch
		`if (strcmp(_m, "f") == 0)`,                 // string-compare dispatch
		`_c->PutObjectByValue(s);`,                  // incopy marshaling
		`HdCall* _c = BeginCall("_get_button");`,    // attribute accessor
	} {
		if !strings.Contains(rmi, want) {
			t.Errorf("A_rmi.hh missing %q", want)
		}
	}
	// The skeleton must NOT inherit the interface class (delegation, not
	// inheritance — the contrast with Fig. 1).
	if strings.Contains(rmi, "class HdA_skel :\n    virtual public HdA") {
		t.Error("HeidiRMI skeleton inherits the interface class")
	}
}

// TestTable1TypeMappings checks both columns of Table 1 plus the wider
// primitive set: the CORBA-prescribed C++ mapping uses CORBA:: types, the
// alternate (HeidiRMI) mapping plain C++/legacy types.
func TestTable1TypeMappings(t *testing.T) {
	root := buildEST(t, "t.idl", "interface T {};")
	corba := corbaCPPFuncs(root)["Corba::MapType"]
	heidi := heidiCPPFuncs(root)["CPP::MapType"]

	rows := []struct {
		idl, corbaT, heidiT string
	}{
		{"long", "CORBA::Long", "long"},        // Table 1 row 1
		{"boolean", "CORBA::Boolean", "XBool"}, // Table 1 row 2
		{"float", "CORBA::Float", "float"},     // Table 1 row 3
		{"short", "CORBA::Short", "short"},
		{"unsigned long", "CORBA::ULong", "unsigned long"},
		{"unsigned short", "CORBA::UShort", "unsigned short"},
		{"long long", "CORBA::LongLong", "long long"},
		{"double", "CORBA::Double", "double"},
		{"octet", "CORBA::Octet", "unsigned char"},
		{"char", "CORBA::Char", "char"},
		{"string", "char*", "HdString*"},
	}
	for _, r := range rows {
		if got, err := corba(r.idl, nil); err != nil || got != r.corbaT {
			t.Errorf("corba-cpp maps %q to %q (%v), want %q", r.idl, got, err, r.corbaT)
		}
		if got, err := heidi(r.idl, nil); err != nil || got != r.heidiT {
			t.Errorf("heidi-cpp maps %q to %q (%v), want %q", r.idl, got, err, r.heidiT)
		}
	}
}

// TestTable2Usages: the CORBA mapping prescribes A_var/A_ptr usages while
// the legacy (HeidiRMI) mapping lets application code keep plain "A a; A*
// p;" spellings — Table 2's contrast.
func TestTable2Usages(t *testing.T) {
	corba := generate(t, CorbaCPP, "A.idl", idltest.AIDL).File("A.hh")
	for _, want := range []string{
		"typedef Heidi_A* Heidi_A_ptr;",
		"class Heidi_A_var",
		"static Heidi_A_ptr _narrow(CORBA::Object_ptr obj);",
	} {
		if !strings.Contains(corba, want) {
			t.Errorf("corba header missing %q", want)
		}
	}
	heidi := generate(t, HeidiCPP, "A.idl", idltest.AIDL).File("A.hh")
	for _, banned := range []string{"_var", "_ptr", "CORBA::"} {
		if strings.Contains(heidi, banned) {
			t.Errorf("heidi header contains CORBA-prescribed spelling %q", banned)
		}
	}
	if !strings.Contains(heidi, "HdA*") {
		t.Error("heidi header should use plain pointers (legacy usage)")
	}
}

// TestFig1CorbaHierarchy: the CORBA mapping generates the inheritance
// hierarchy of Fig. 1 — stub is-a interface, skeleton is-a interface that
// the implementation derives from, tie bridges an unrelated class.
func TestFig1CorbaHierarchy(t *testing.T) {
	out := generate(t, CorbaCPP, "A.idl", idltest.AIDL)
	skel := out.File("A_skel.hh")
	for _, want := range []string{
		"class Heidi_A_stub :",
		"virtual public Heidi_A_stub", // not required; see below
	} {
		_ = want
	}
	for _, want := range []string{
		"class Heidi_A_stub :",
		"    virtual public Heidi_S_stub,",
		"    virtual public Heidi_A",
		"class POA_Heidi_A :",
		"    virtual public POA_Heidi_S,",
		"template<class T>",
		"class POA_Heidi_A_tie : public POA_Heidi_A",
		"virtual void f(Heidi_A_ptr a) { return tied_.f(a); }",
	} {
		if !strings.Contains(skel, want) {
			t.Errorf("A_skel.hh missing %q", want)
		}
	}
	// The CORBA mapping drops the paper's extensions: no default values,
	// incopy degrades to a plain object reference.
	hh := out.File("A.hh")
	if strings.Contains(hh, "= 0) = 0") || strings.Contains(hh, "l = 0") {
		t.Error("CORBA mapping must not emit default parameters")
	}
	if strings.Contains(skel, "ByValue") {
		t.Error("CORBA mapping must not emit incopy by-value marshaling")
	}
}

// TestFig10TclStubSkel locks the Tcl stub/skeleton for Receiver.idl to the
// shape of Fig. 10.
func TestFig10TclStubSkel(t *testing.T) {
	out := generate(t, Tcl, "Receiver.idl", idltest.ReceiverIDL)
	const want = `if {[info vars "IDL:Receiver:1.0"] != ""} return
set IDL:Receiver:1.0 1
BOA::addIdlMapping ::Receiver "IDL:Receiver:1.0"

class ReceiverStub {
  inherit Stub
  constructor {ior connector} {
    Stub::constructor $ior $connector
  } {}
  public method print {text} {
    set c [$pb_connector_ getRequestCall $this "print" 0]
    $c insertString $text
    $c send
    # void return
    $c release
  }
}

class ReceiverSkel {
  inherit Skel
  constructor {implObj} {
    Skel::constructor $implObj
  } {}
  public method print {c} {
    set text [$c extractString]
    $pb_obj_ print $text
    # void return
  }
}
`
	if got := out.File("Receiver.tcl"); got != want {
		t.Errorf("Receiver.tcl differs from Fig. 10 golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestJavaMappingExpansion checks §4.2's Java mapping properties: multiple
// super-classes are expanded into stubs/skeletons (Java has no multiple
// implementation inheritance) and default parameters are not supported.
func TestJavaMappingExpansion(t *testing.T) {
	out := generate(t, Java, "media.idl", idltest.MediaIDL)
	src := out.File("media.java")
	if src == "" {
		t.Fatal("media.java not generated")
	}
	// The Session interface extends both bases...
	if !strings.Contains(src, "public interface HdSession extends HdSource, HdSink {") {
		t.Error("Session interface does not extend both bases")
	}
	// ...but its stub extends only HdStub and reimplements inherited
	// operations, tagged with their declaring interface.
	if !strings.Contains(src, "public class HdSessionStub extends HdStub implements HdSession {") {
		t.Error("Session stub does not extend HdStub")
	}
	stubStart := strings.Index(src, "public class HdSessionStub")
	stubBody := src[stubStart:]
	if end := strings.Index(stubBody, "public class HdSessionSkeleton"); end > 0 {
		stubBody = stubBody[:end]
	}
	for _, want := range []string{
		"// declared in Media::Node",
		"public void ping() {",
		"// declared in Media::Source",
		"public void open(String name, int offsetMs) {",
		"public void configure(HdStreamInfo info, boolean exclusive) {",
	} {
		if !strings.Contains(stubBody, want) {
			t.Errorf("Session stub missing expanded member %q", want)
		}
	}
	// No default parameter values in signatures (Java drops them; the
	// paper's Java mapping "does not support default parameters").
	if strings.Contains(src, "offsetMs = 0") || strings.Contains(src, "int offsetMs =0") ||
		strings.Contains(src, "open(String name, int offsetMs = ") {
		t.Error("Java mapping emitted default parameter values")
	}
	// Inherited attribute expands too.
	if !strings.Contains(stubBody, `beginCall("_get_name")`) {
		t.Error("Session stub missing inherited attribute accessor")
	}
}

// TestC5MappingMatrix generates every registered mapping from the same IDL
// module, the §4.2 experience claim: one compiler, many mappings selected
// by template. Reports generated line counts (the paper cites ~700 lines
// of Tcl for its Tcl ORB client code).
func TestC5MappingMatrix(t *testing.T) {
	for _, m := range List() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			out := generate(t, m, "media.idl", idltest.MediaIDL)
			files := out.Files()
			if len(files) == 0 {
				t.Fatalf("mapping %s generated nothing", m.Name)
			}
			total := 0
			for _, f := range files {
				total += TclLoC(out.File(f)) // non-blank non-comment lines
			}
			if total < 40 {
				t.Errorf("mapping %s generated only %d lines", m.Name, total)
			}
			t.Logf("mapping %-10s: %d files, %d LoC", m.Name, len(files), total)
		})
	}
}

func TestRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, m := range List() {
		names[m.Name] = true
	}
	for _, want := range []string{"heidi-cpp", "corba-cpp", "java", "tcl", "go"} {
		if !names[want] {
			t.Errorf("mapping %q not registered", want)
		}
	}
	if _, err := Lookup("heidi-cpp"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("cobol"); err == nil {
		t.Error("Lookup of unregistered mapping should fail")
	}
	list := List()
	for i := 1; i < len(list); i++ {
		if list[i-1].Name >= list[i].Name {
			t.Fatal("List not sorted")
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate Register should panic")
		}
	}()
	Register(&Mapping{Name: "tcl"})
}

func TestMappingCompileReuse(t *testing.T) {
	prog, err := HeidiCPP.Compile()
	if err != nil {
		t.Fatal(err)
	}
	root := buildEST(t, "A.idl", idltest.AIDL)
	for i := 0; i < 2; i++ {
		out, err := prog.ExecuteToMemory(root, HeidiCPP.Funcs(root))
		if err != nil {
			t.Fatal(err)
		}
		if out.File("A.hh") == "" {
			t.Fatal("missing A.hh")
		}
	}
}

func TestMapFuncErrors(t *testing.T) {
	root := buildEST(t, "t.idl", "interface T {};")
	cases := []struct {
		fn    jeeves.MapFunc
		input string
	}{
		{heidiCPPFuncs(root)["CPP::MapType"], "Totally::Unknown"},
		{corbaCPPFuncs(root)["Corba::MapType"], "Totally::Unknown"},
		{javaFuncs(root)["Java::MapType"], "Totally::Unknown"},
		{heidiCPPFuncs(root)["CPP::MapClassName"], ""},
	}
	for i, c := range cases {
		if _, err := c.fn(c.input, est.New("Param", "p")); err == nil {
			t.Errorf("case %d: mapping %q should fail", i, c.input)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	if e, b, ok := parseSequence("sequence<Heidi::S>"); !ok || e != "Heidi::S" || b != "" {
		t.Errorf("parseSequence: %q %q %v", e, b, ok)
	}
	if e, b, ok := parseSequence("sequence<long,8>"); !ok || e != "long" || b != "8" {
		t.Errorf("bounded: %q %q %v", e, b, ok)
	}
	if e, b, ok := parseSequence("sequence<sequence<long,4>>"); !ok || e != "sequence<long,4>" || b != "" {
		t.Errorf("nested: %q %q %v", e, b, ok)
	}
	if _, _, ok := parseSequence("long"); ok {
		t.Error("non-sequence accepted")
	}
	if e, d, ok := parseArray("long[2][3]"); !ok || e != "long" || len(d) != 2 || d[0] != "2" {
		t.Errorf("parseArray: %q %v %v", e, d, ok)
	}
	if _, _, ok := parseArray("long"); ok {
		t.Error("non-array accepted")
	}
	if lastComponent("A::B::C") != "C" || lastComponent("X") != "X" {
		t.Error("lastComponent")
	}
	if flatName("A::B") != "A_B" {
		t.Error("flatName")
	}
	if capitalize("button") != "Button" || capitalize("") != "" {
		t.Error("capitalize")
	}
}

// TestGoMappingOutParams: out parameters become extra return values, inout
// parameters both pass and return.
func TestGoMappingOutParams(t *testing.T) {
	root := buildEST(t, "o.idl", `interface O {
  long divide(in long a, in long b, out long remainder);
  string normalize(inout string s);
  void pair(out long lo, out long hi);
};`)
	EnsureGoPackage(root, "")
	out, err := GoMapping.Generate(root)
	if err != nil {
		t.Fatal(err)
	}
	src := out.File("o_gen.go")
	for _, want := range []string{
		"Divide(a int32, b int32) (int32, int32, error)",
		"Normalize(s string) (string, string, error)", // result + inout final value
		"Pair() (int32, int32, error)",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated Go missing %q", want)
		}
	}
}

// TestGoMappingRejectsArrays: unsupported constructs fail loudly rather
// than generating wrong code.
func TestGoMappingRejectsArrays(t *testing.T) {
	root := buildEST(t, "o.idl", `typedef long Grid[2][2];
interface O { void f(in Grid g); };`)
	EnsureGoPackage(root, "")
	if _, err := GoMapping.Generate(root); err == nil ||
		!strings.Contains(err.Error(), "arrays are not supported") {
		t.Errorf("err = %v, want array rejection", err)
	}
}

// TestGoMappingSequenceSlab covers the sequence unmarshaling no shipped IDL
// reaches: a sequence of structs as a struct member, as a union arm and as an
// in parameter. Each decodes into one slab behind a length heidi.GetSeqLen
// has bounded, and the whole file must type-check against the runtime.
func TestGoMappingSequenceSlab(t *testing.T) {
	src := generate(t, GoMapping, "lib.idl", `module Lib {
  struct Track { string title; long ms; };
  typedef sequence<Track> TrackSeq;
  struct Album { string name; TrackSeq tracks; sequence<long> years; };
  union Pick switch (long) { case 0: TrackSeq many; default: long none; };
  interface Shelf {
    sequence<Album> albums(in TrackSeq like, in Pick p);
  };
};`).File("lib_gen.go")
	for _, want := range []string{
		"if _n2, err := heidi.GetSeqLen(r); err != nil {", // member: bounded count
		"_slab4 := make([]HdTrack, len(v.Tracks))",        // member: one slab
		"v.Tracks[_i3] = &_slab4[_i3]",
		"v.Years = make([]int32, _n5)", // scalars need no slab
		"v.Many[_i2] = &_slab3[_i2]",   // union arm
		"_n2, err := heidi.GetSeqLen(c)",
		"_slab5 := make([]HdAlbum, _n2)", // stub, result
		"_slab4 := make([]HdTrack, _n1)", // skeleton, in parameter
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated Go missing %q", want)
		}
	}
	if strings.Contains(src, "= &HdTrack{}") || strings.Contains(src, "= &HdAlbum{}") {
		t.Error("a sequence element is still allocated on its own")
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "lib_gen.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("lib", fset, []*ast.File{file}, nil); err != nil {
		t.Errorf("generated Go does not type-check: %v", err)
	}
}

// TestGoMappingRejectsMemberlessElements: the received-length bound rests on
// every element occupying at least one byte, so the one type that occupies
// none is refused at generation time.
func TestGoMappingRejectsMemberlessElements(t *testing.T) {
	root := buildEST(t, "o.idl", `struct Nothing {};
struct Wrapped { Nothing n; };
interface O { void f(in sequence<Wrapped> s); };`)
	EnsureGoPackage(root, "")
	if _, err := GoMapping.Generate(root); err == nil ||
		!strings.Contains(err.Error(), "memberless struct") {
		t.Errorf("err = %v, want memberless-struct rejection", err)
	}
}

func TestEnsureGoPackage(t *testing.T) {
	root := est.NewRoot()
	root.SetProp("basename", "MyFile")
	EnsureGoPackage(root, "")
	if root.PropString("goPackage") != "myfile" {
		t.Errorf("goPackage = %q", root.PropString("goPackage"))
	}
	EnsureGoPackage(root, "explicit")
	if root.PropString("goPackage") != "explicit" {
		t.Error("explicit package ignored")
	}
	empty := est.NewRoot()
	EnsureGoPackage(empty, "")
	if empty.PropString("goPackage") != "generated" {
		t.Errorf("fallback = %q", empty.PropString("goPackage"))
	}
}

func BenchmarkGenerate(b *testing.B) {
	spec := idl.MustParse("media.idl", idltest.MediaIDL)
	for _, m := range List() {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				root := est.Build(spec)
				if m == GoMapping {
					EnsureGoPackage(root, "")
				}
				if _, err := m.Generate(root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileOnceExecuteMany isolates the §4.1 claim that template
// compilation "need only be performed once": executing a precompiled
// template vs compiling + executing each time.
func BenchmarkCompileOnceExecuteMany(b *testing.B) {
	spec := idl.MustParse("A.idl", idltest.AIDL)
	root := est.Build(spec)
	b.Run("execute-only", func(b *testing.B) {
		prog, err := HeidiCPP.Compile()
		if err != nil {
			b.Fatal(err)
		}
		funcs := HeidiCPP.Funcs(root)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prog.ExecuteToMemory(root, funcs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile+execute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog, err := HeidiCPP.Compile()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := prog.ExecuteToMemory(root, HeidiCPP.Funcs(root)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
