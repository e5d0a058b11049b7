package traffic

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"epnet/internal/link"
	"epnet/internal/sim"
)

func TestParetoValidate(t *testing.T) {
	bad := []Pareto{
		{Alpha: 0, Min: 1, Max: 2},
		{Alpha: 1, Min: 1, Max: 2},
		{Alpha: -1, Min: 1, Max: 2},
		{Alpha: 1.5, Min: 0, Max: 2},
		{Alpha: 1.5, Min: 2, Max: 2},
		{Alpha: 1.5, Min: 3, Max: 2},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Errorf("pareto %+v accepted", p)
		}
	}
	if (Pareto{Alpha: 1.3, Min: 1, Max: 10}).Validate() != nil {
		t.Error("valid pareto rejected")
	}
}

func TestParetoMeanMatchesSamples(t *testing.T) {
	p := Pareto{Alpha: 1.3, Min: 64, Max: 2048}
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := p.Sample(rng)
		if v < p.Min || v > p.Max {
			t.Fatalf("sample %v outside [%v,%v]", v, p.Min, p.Max)
		}
		sum += v
	}
	got := sum / n
	want := p.Mean()
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("sample mean %v vs analytic %v", got, want)
	}
}

func TestParetoScaleToMean(t *testing.T) {
	p := Pareto{Alpha: 1.2, Min: 1, Max: 1000}
	q := p.ScaleToMean(42)
	if math.Abs(q.Mean()-42) > 1e-9 {
		t.Errorf("scaled mean = %v, want 42", q.Mean())
	}
	if q.Alpha != p.Alpha {
		t.Error("scale changed shape")
	}
	if math.Abs(q.Max/q.Min-p.Max/p.Min) > 1e-9 {
		t.Error("scale changed dynamic range")
	}
}

// Property: Pareto sampling stays within bounds for arbitrary valid
// parameters.
func TestParetoBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(aRaw, mRaw, spanRaw uint16) bool {
		alpha := 1.05 + float64(aRaw%300)/100 // 1.05..4.05
		min := 1 + float64(mRaw%1000)
		max := min * (2 + float64(spanRaw%100))
		p := Pareto{Alpha: alpha, Min: min, Max: max}
		for i := 0; i < 50; i++ {
			v := p.Sample(rng)
			if v < min || v > max {
				return false
			}
		}
		m := p.Mean()
		return m >= min && m <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestUniformCalibration captures the Uniform workload and verifies its
// offered load lands on the configured 23% average utilization.
func TestUniformCalibration(t *testing.T) {
	w := DefaultUniform(7)
	const hosts = 64
	horizon := 20 * sim.Millisecond
	recs := Capture(w, hosts, horizon)
	st := Stats(recs, hosts, float64(link.Rate40G), horizon)
	if st.MeanUtil < 0.20 || st.MeanUtil > 0.26 {
		t.Errorf("uniform mean util = %v, want ~0.23", st.MeanUtil)
	}
	if st.MaxMsgSize != 512*1024 {
		t.Errorf("message size = %d, want 512k", st.MaxMsgSize)
	}
	// Every destination differs from its source.
	for _, r := range recs {
		if r.Src == r.Dst {
			t.Fatal("self-directed message")
		}
	}
}

// TestTraceLikeCalibration verifies the Search and Advert synthetics hit
// the paper's average utilizations (6% and 5%) within tolerance, and are
// much burstier than the Uniform workload at sub-millisecond timescales.
func TestTraceLikeCalibration(t *testing.T) {
	const hosts = 128
	horizon := 50 * sim.Millisecond
	windows := []sim.Time{10 * sim.Microsecond, 100 * sim.Microsecond, sim.Millisecond}

	uni := Capture(DefaultUniform(3), hosts, horizon)
	uniBurst := BurstinessIndex(uni, horizon, windows)

	for _, tc := range []struct {
		name string
		w    *TraceLike
		want float64
	}{
		{"Search", Search(3), 0.06},
		{"Advert", Advert(3), 0.05},
	} {
		recs := Capture(tc.w, hosts, horizon)
		st := Stats(recs, hosts, float64(link.Rate40G), horizon)
		if math.Abs(st.MeanUtil-tc.want)/tc.want > 0.35 {
			t.Errorf("%s mean util = %v, want ~%v", tc.name, st.MeanUtil, tc.want)
		}
		burst := BurstinessIndex(recs, horizon, windows)
		if burst <= uniBurst {
			t.Errorf("%s burstiness %v not above uniform %v", tc.name, burst, uniBurst)
		}
	}
}

// TestTraceLikeAsymmetry: server hosts must inject far more bytes than
// they receive requests for — the read-heavy asymmetry behind the
// paper's independent channel control argument (§3.3.1).
func TestTraceLikeAsymmetry(t *testing.T) {
	const hosts = 64
	horizon := 20 * sim.Millisecond
	w := Search(5)
	w.ShuffleFrac = 0 // isolate the request/response asymmetry
	recs := Capture(w, hosts, horizon)
	out := make(map[int]int64)
	in := make(map[int]int64)
	for _, r := range recs {
		out[r.Src] += int64(r.Size)
		in[r.Dst] += int64(r.Size)
	}
	// Find the host with the largest outbound volume: a server. Its
	// outbound bytes should dwarf its inbound.
	var top int
	for h := range out {
		if out[h] > out[top] {
			top = h
		}
	}
	if out[top] < 4*in[top] {
		t.Errorf("top server out=%d in=%d, want >= 4x asymmetry", out[top], in[top])
	}
}

func TestTraceLikeValidate(t *testing.T) {
	w := Search(1)
	w.Load = 0
	if w.Validate() == nil {
		t.Error("load 0 accepted")
	}
	w = Search(1)
	w.ServerFrac = 1
	if w.Validate() == nil {
		t.Error("server frac 1 accepted")
	}
	w = Search(1)
	w.ShuffleFrac = 1
	if w.Validate() == nil {
		t.Error("shuffle frac 1 accepted")
	}
	w = Search(1)
	w.ReqBytes = 0
	if w.Validate() == nil {
		t.Error("req bytes 0 accepted")
	}
	if Search(1).Validate() != nil || Advert(1).Validate() != nil {
		t.Error("valid presets rejected")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	recs := Capture(DefaultUniform(9), 16, 2*sim.Millisecond)
	if len(recs) == 0 {
		t.Fatal("no records captured")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip %d != %d records", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %v != %v", i, got[i], recs[i])
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("NOTATRACEFILE!!!"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Record{{At: 1, Src: 0, Dst: 1, Size: 10}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
	// Invalid record (negative size) rejected.
	var buf2 bytes.Buffer
	buf2.Write(traceMagic[:])
	buf2.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	for i := 0; i < 4; i++ {
		buf2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	}
	if _, err := ReadTrace(bytes.NewReader(buf2.Bytes())); err == nil {
		t.Error("negative record accepted")
	}
}

func TestReplay(t *testing.T) {
	recs := []Record{
		{At: sim.Microsecond, Src: 0, Dst: 1, Size: 100},
		{At: 2 * sim.Microsecond, Src: 1, Dst: 0, Size: 200},
		{At: sim.Second, Src: 0, Dst: 1, Size: 300}, // beyond horizon
	}
	e := sim.New()
	rec := &recorder{hosts: 2, e: e}
	p := &Replay{Records: recs}
	p.Start(e, rec, 10*sim.Microsecond)
	e.Run()
	if len(rec.out) != 2 {
		t.Fatalf("replayed %d records, want 2 (horizon skips third)", len(rec.out))
	}
	if rec.out[0].At != sim.Microsecond || rec.out[1].Size != 200 {
		t.Errorf("replay mismatch: %v", rec.out)
	}
}

func TestPermutationAndHotspot(t *testing.T) {
	const hosts = 32
	horizon := 5 * sim.Millisecond
	perm := &Permutation{MsgBytes: 8192, Load: 0.1, LineRate: link.Rate40G, Seed: 4}
	recs := Capture(perm, hosts, horizon)
	// Each source always sends to the same destination.
	dst := map[int]int{}
	for _, r := range recs {
		if d, ok := dst[r.Src]; ok && d != r.Dst {
			t.Fatal("permutation source changed destination")
		}
		dst[r.Src] = r.Dst
		if r.Src == r.Dst {
			t.Fatal("self-directed")
		}
	}
	hot := &Hotspot{MsgBytes: 8192, Load: 0.05, LineRate: link.Rate40G, Hot: 2, Seed: 4}
	recs = Capture(hot, hosts, horizon)
	for _, r := range recs {
		if r.Dst >= 2 && r.Dst != r.Src+1 && r.Dst != 2 { // allow self-avoid bump
			if r.Dst > 2 {
				t.Fatalf("hotspot sent to %d", r.Dst)
			}
		}
	}
}

// TestHotspotFewerHostsThanHot runs Hotspot's default four hot
// destinations on fabrics of two and three hosts: the hot set clamps to
// the host count, so every injection names a host that exists.
func TestHotspotFewerHostsThanHot(t *testing.T) {
	for _, hosts := range []int{2, 3} {
		w := &Hotspot{MsgBytes: 8192, Load: 0.5, LineRate: link.Rate40G, Hot: 4, Seed: 1}
		s := runGen(t, w, hosts, sim.Millisecond)
		for _, m := range s.msgs {
			if m.dst >= hosts || m.src == m.dst {
				t.Fatalf("%d hosts: injection %d -> %d", hosts, m.src, m.dst)
			}
		}
	}
}

func TestBurstinessIndexEdges(t *testing.T) {
	if BurstinessIndex(nil, sim.Second, []sim.Time{sim.Millisecond}) != 0 {
		t.Error("empty trace not 0")
	}
	recs := []Record{{At: 0, Src: 0, Dst: 1, Size: 100}}
	if BurstinessIndex(recs, 0, []sim.Time{sim.Millisecond}) != 0 {
		t.Error("zero horizon not 0")
	}
	if BurstinessIndex(recs, sim.Second, nil) != 0 {
		t.Error("no windows not 0")
	}
	// Perfectly smooth traffic scores below bursty traffic.
	var smooth, bursty []Record
	for i := 0; i < 1000; i++ {
		smooth = append(smooth, Record{At: sim.Time(i) * sim.Microsecond, Size: 100})
	}
	for i := 0; i < 1000; i++ {
		bursty = append(bursty, Record{At: sim.Time(i/100) * 100 * sim.Microsecond, Size: 100})
	}
	h := sim.Millisecond
	ws := []sim.Time{10 * sim.Microsecond, 100 * sim.Microsecond}
	if BurstinessIndex(smooth, h, ws) >= BurstinessIndex(bursty, h, ws) {
		t.Error("smooth traffic scored as bursty")
	}
}

func TestStatsEmpty(t *testing.T) {
	st := Stats(nil, 0, 0, 0)
	if st.Messages != 0 || st.Bytes != 0 || st.MeanUtil != 0 {
		t.Error("empty stats not zero")
	}
}

func TestScaleTrace(t *testing.T) {
	recs := []Record{
		{At: 1000, Src: 0, Dst: 1, Size: 100},
		{At: 2000, Src: 1, Dst: 0, Size: 1},
	}
	out, err := ScaleTrace(recs, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].At != 500 || out[1].At != 1000 {
		t.Errorf("times not compressed: %v %v", out[0].At, out[1].At)
	}
	if out[0].Size != 300 || out[1].Size != 3 {
		t.Errorf("sizes not scaled: %d %d", out[0].Size, out[1].Size)
	}
	// Tiny sizes clamp to one byte.
	out, err = ScaleTrace(recs, 1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].Size != 1 {
		t.Errorf("size %d, want clamp to 1", out[1].Size)
	}
	// Invalid factors rejected.
	if _, err := ScaleTrace(recs, 0, 1); err == nil {
		t.Error("speedup 0 accepted")
	}
	if _, err := ScaleTrace(recs, 1, -1); err == nil {
		t.Error("negative size factor accepted")
	}
	// Originals untouched.
	if recs[0].At != 1000 {
		t.Error("input mutated")
	}
}

func TestRemapHosts(t *testing.T) {
	recs := []Record{
		{At: 1, Src: 100, Dst: 200, Size: 10},
		{At: 2, Src: 100, Dst: 300, Size: 10},
		{At: 3, Src: 200, Dst: 100, Size: 10},
	}
	out, err := RemapHosts(recs, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r.Src < 0 || r.Src >= 8 || r.Dst < 0 || r.Dst >= 8 {
			t.Fatalf("record %d out of host range: %+v", i, r)
		}
		if r.Src == r.Dst {
			t.Fatalf("record %d self-directed", i)
		}
	}
	// Consistent mapping: the same original host maps identically.
	if out[0].Src != out[1].Src {
		t.Error("host 100 mapped inconsistently")
	}
	if _, err := RemapHosts(recs, 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	// Deterministic for a fixed seed.
	again, _ := RemapHosts(recs, 8, 1)
	for i := range out {
		if out[i] != again[i] {
			t.Fatal("remap not deterministic")
		}
	}
}

func TestTornado(t *testing.T) {
	w := &Tornado{MsgBytes: 8192, Load: 0.1, LineRate: link.Rate40G, Seed: 2}
	recs := Capture(w, 16, 5*sim.Millisecond)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for _, r := range recs {
		want := (r.Src + 8) % 16
		if r.Dst != want {
			t.Fatalf("src %d sent to %d, want %d", r.Src, r.Dst, want)
		}
	}
	st := Stats(recs, 16, float64(link.Rate40G), 5*sim.Millisecond)
	if st.MeanUtil < 0.08 || st.MeanUtil > 0.12 {
		t.Errorf("tornado util = %v, want ~0.1", st.MeanUtil)
	}
}
