package record

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/radio"
	"repro/internal/vclock"
)

func samplePacket(i int) Packet {
	return Packet{
		Kind:    PacketKind(1 + i%3),
		At:      vclock.FromMillis(int64(i * 10)),
		Stamp:   vclock.FromMillis(int64(i*10 - 2)),
		Src:     radio.NodeID(i % 5),
		Dst:     radio.NodeID((i + 1) % 5),
		Relay:   radio.NodeID((i + 2) % 5),
		Channel: radio.ChannelID(i % 3),
		Flow:    uint16(i % 4),
		Seq:     uint32(i),
		Size:    uint32(100 + i),
	}
}

func TestStoreAppendAndCount(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.AddScene(Scene{At: 5, Node: 1, Op: "move", X: 1, Y: 2})
	if s.PacketCount() != 10 || s.SceneCount() != 1 {
		t.Errorf("counts: %d %d", s.PacketCount(), s.SceneCount())
	}
}

func TestPacketKindString(t *testing.T) {
	if PacketIn.String() != "in" || PacketOut.String() != "out" || PacketDrop.String() != "drop" {
		t.Error("kind strings")
	}
	if PacketKind(9).String() != "PacketKind(9)" {
		t.Error("unknown kind string")
	}
}

func TestFilters(t *testing.T) {
	s := NewStore()
	for i := 0; i < 30; i++ {
		s.AddPacket(samplePacket(i))
	}
	if got := s.Packets(Filter{}); len(got) != 30 {
		t.Errorf("empty filter: %d", len(got))
	}
	in := s.Packets(Filter{Kind: PacketIn})
	for _, p := range in {
		if p.Kind != PacketIn {
			t.Fatal("Kind filter leak")
		}
	}
	f2 := s.Packets(Filter{Flow: 2, FlowSet: true})
	for _, p := range f2 {
		if p.Flow != 2 {
			t.Fatal("Flow filter leak")
		}
	}
	// Flow 0 must be filterable too (FlowSet distinguishes).
	f0 := s.Packets(Filter{Flow: 0, FlowSet: true})
	if len(f0) == 0 {
		t.Error("FlowSet with zero flow matched nothing")
	}
	src := s.Packets(Filter{Src: 1, SrcSet: true})
	for _, p := range src {
		if p.Src != 1 {
			t.Fatal("Src filter leak")
		}
	}
	ranged := s.Packets(Filter{From: vclock.FromMillis(50), To: vclock.FromMillis(100)})
	for _, p := range ranged {
		if p.At < vclock.FromMillis(50) || p.At > vclock.FromMillis(100) {
			t.Fatal("time filter leak")
		}
	}
	if len(ranged) != 6 {
		t.Errorf("time filter count: %d", len(ranged))
	}
}

func TestForEachAndSpan(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 5; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.AddScene(Scene{At: vclock.FromSeconds(99), Op: "late"})
	n := 0
	s.ForEachPacket(func(Packet) { n++ })
	if n != 5 {
		t.Errorf("ForEachPacket visited %d", n)
	}
	from, to := s.Span()
	if from != vclock.FromMillis(10) || to != vclock.FromSeconds(99) {
		t.Errorf("Span = %v..%v", from, to)
	}
}

func TestScenesSortedInWindow(t *testing.T) {
	s := NewStore()
	s.AddScene(Scene{At: 30, Op: "c"})
	s.AddScene(Scene{At: 10, Op: "a"})
	s.AddScene(Scene{At: 20, Op: "b"})
	s.AddScene(Scene{At: 99, Op: "out"})
	got := s.Scenes(0, 50)
	if len(got) != 3 || got[0].Op != "a" || got[1].Op != "b" || got[2].Op != "c" {
		t.Errorf("Scenes = %+v", got)
	}
}

func TestConcurrentAppend(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.AddPacket(samplePacket(i))
				if i%50 == 0 {
					s.AddScene(Scene{At: vclock.Time(i), Op: "tick"})
				}
			}
		}(w)
	}
	// Concurrent readers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.PacketCount()
				s.Packets(Filter{Kind: PacketIn})
			}
		}()
	}
	wg.Wait()
	if s.PacketCount() != writers*per {
		t.Errorf("lost records: %d", s.PacketCount())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.AddPacket(samplePacket(i))
	}
	s.AddScene(Scene{At: 7, Node: 3, Op: "move", Detail: "to (5,6)", X: 5, Y: 6})
	s.AddScene(Scene{At: 9, Node: 1, Op: "radios", Detail: "ch1 r200"})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PacketCount() != 100 || got.SceneCount() != 2 {
		t.Fatalf("loaded counts: %d %d", got.PacketCount(), got.SceneCount())
	}
	a := s.Packets(Filter{})
	b := got.Packets(Filter{})
	if !reflect.DeepEqual(a, b) {
		t.Error("packet records differ after round trip")
	}
	sa := s.Scenes(0, 1<<62)
	sb := got.Scenes(0, 1<<62)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("scene records differ: %+v vs %+v", sa, sb)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("PoEm"),                     // truncated after magic
		append([]byte("PoEm"), 0, 99),      // bad version
		append([]byte("PoEm"), 0, 1, 0xFF), // truncated count
	}
	for i, b := range cases {
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestLoadRejectsImplausibleCounts(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("PoEm")
	buf.Write([]byte{0, 1})                                           // version
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // huge count
	if _, err := Load(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("huge count: %v", err)
	}
	// A count under the cap but far beyond the bytes that follow must
	// fail on the missing records, not allocate what the header claims.
	buf.Reset()
	buf.WriteString("PoEm")
	buf.Write([]byte{0, 1})
	buf.Write([]byte{0, 0, 0, 0, 0x7F, 0x7F, 0x7F, 0x7F, 0x0B, 0xB8})
	if _, err := Load(&buf); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("count past the data: %v", err)
	}
}

// Property: random packet records survive persistence bit-for-bit.
func TestPersistencePropertyRandom(t *testing.T) {
	f := func(kind uint8, at, stamp int64, src, dst, relay uint32, ch, flow uint16, seq uint32, size uint32) bool {
		p := Packet{
			Kind: PacketKind(kind%3 + 1), At: vclock.Time(at), Stamp: vclock.Time(stamp),
			Src: radio.NodeID(src), Dst: radio.NodeID(dst), Relay: radio.NodeID(relay),
			Channel: radio.ChannelID(ch), Flow: flow, Seq: seq, Size: size % (1 << 24),
		}
		s := NewStore()
		s.AddPacket(p)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Packets(Filter{})[0], p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSceneCoordinatePrecision(t *testing.T) {
	s := NewStore()
	s.AddScene(Scene{At: 1, X: 123.456, Y: -98.765})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	e := got.Scenes(0, 10)[0]
	if e.X != 123.456 || e.Y != -98.765 {
		t.Errorf("coordinates: %v %v", e.X, e.Y)
	}
}

func BenchmarkStoreAppend(b *testing.B) {
	s := NewStore()
	p := samplePacket(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddPacket(p)
	}
}

func BenchmarkStoreSave(b *testing.B) {
	s := NewStore()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s.AddPacket(samplePacket(rng.Intn(1000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
