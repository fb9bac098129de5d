package obs

import (
	"bufio"
	"math"
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRenderWellFormed drives one of everything through the renderer
// and checks the exposition invariants: sorted families, one HELP/TYPE
// pair each, sorted samples, escaped labels.
func TestRenderWellFormed(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zz_total", "Last name, first family when sorted? No — sorted ascending.")
	c.Inc()
	c.Add(4)
	g := r.Gauge("aa_gauge", "First when sorted.")
	g.Set(2.5)
	v := r.CounterVec("mid_total", "Labeled counter.", "path", "kind")
	v.With("b", "x").Inc()
	v.With("a", "y").Add(2)
	v.With(`quote"back\slash`, "nl\nline").Inc()
	h := r.Histogram("lat_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	text := render(t, r)

	// Families appear in sorted order.
	wantOrder := []string{"aa_gauge", "lat_seconds", "mid_total", "zz_total"}
	last := -1
	for _, name := range wantOrder {
		i := strings.Index(text, "# HELP "+name+" ")
		if i < 0 {
			t.Fatalf("family %s missing:\n%s", name, text)
		}
		if i < last {
			t.Errorf("family %s out of order", name)
		}
		last = i
	}

	// One HELP and one TYPE per family.
	for _, name := range wantOrder {
		if n := strings.Count(text, "# HELP "+name+" "); n != 1 {
			t.Errorf("%s: %d HELP lines", name, n)
		}
		if n := strings.Count(text, "# TYPE "+name+" "); n != 1 {
			t.Errorf("%s: %d TYPE lines", name, n)
		}
	}

	if !strings.Contains(text, "zz_total 5\n") {
		t.Errorf("counter value wrong:\n%s", text)
	}
	if !strings.Contains(text, "aa_gauge 2.5\n") {
		t.Errorf("gauge value wrong:\n%s", text)
	}
	// Labeled samples sorted by label string; escapes applied.
	ia := strings.Index(text, `mid_total{path="a",kind="y"} 2`)
	ib := strings.Index(text, `mid_total{path="b",kind="x"} 1`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("labeled samples missing or unsorted:\n%s", text)
	}
	if !strings.Contains(text, `path="quote\"back\\slash"`) || !strings.Contains(text, `kind="nl\nline"`) {
		t.Errorf("label escaping wrong:\n%s", text)
	}
	// Histogram: cumulative buckets, +Inf == count.
	for _, line := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_sum 5.55`,
		`lat_seconds_count 3`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("missing %q:\n%s", line, text)
		}
	}
}

// TestEmptyFamiliesSkipped: a family with no live children emits
// nothing, and Reset empties a dynamic family.
func TestEmptyFamiliesSkipped(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("dyn", "Dynamic per-thing gauge.", "thing")
	if text := render(t, r); text != "" {
		t.Fatalf("empty registry rendered %q", text)
	}
	v.With("a").Set(1)
	if text := render(t, r); !strings.Contains(text, `dyn{thing="a"} 1`) {
		t.Fatalf("bound child missing:\n%s", text)
	}
	v.Reset()
	if text := render(t, r); text != "" {
		t.Fatalf("reset family still rendered %q", text)
	}
}

// TestCollectorRunsPerScrape: OnScrape collectors refresh pull-style
// instruments before each render.
func TestCollectorRunsPerScrape(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pull_gauge", "Mirrored.")
	n := 0.0
	r.OnScrape(func() { n++; g.Set(n) })
	if text := render(t, r); !strings.Contains(text, "pull_gauge 1\n") {
		t.Fatalf("first scrape:\n%s", text)
	}
	if text := render(t, r); !strings.Contains(text, "pull_gauge 2\n") {
		t.Fatalf("second scrape:\n%s", text)
	}
}

// TestCounterFloatPart: a counter's integer and float parts sum, and a
// fractional total renders as the shortest float.
func TestCounterFloatPart(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	c.Set(0.25)
	c.Add(3)
	if got := c.s.value(); got != 3.25 {
		t.Fatalf("value = %v", got)
	}
	if text := render(t, r); !strings.Contains(text, "c_total 3.25\n") {
		t.Fatalf("render: %s", text)
	}
}

// TestCounterSetMirror: Set supports scrape-time mirroring of external
// monotone totals, including float totals.
func TestCounterSetMirror(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("m_total", "h")
	c.Set(12345)
	if text := render(t, r); !strings.Contains(text, "m_total 12345\n") {
		t.Fatalf("render: %s", text)
	}
	c.Set(1.5)
	if text := render(t, r); !strings.Contains(text, "m_total 1.5\n") {
		t.Fatalf("render: %s", text)
	}
}

// TestGaugeSetInt covers the negative and positive integer paths.
func TestGaugeSetInt(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "h")
	g.SetInt(-3)
	if got := g.s.value(); got != -3 {
		t.Fatalf("value = %v", got)
	}
	g.SetInt(7)
	if got := g.s.value(); got != 7 {
		t.Fatalf("value = %v", got)
	}
}

// TestReregistrationIdempotent: identical re-registration returns the
// same child; conflicting shape panics.
func TestReregistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h")
	b := r.Counter("x_total", "h")
	a.Inc()
	if b.s.value() != 1 {
		t.Fatal("re-registration returned a different child")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting registration did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

// TestValueFormatting: big integral counters stay integer-formatted
// (no %g scientific notation), specials render per the grammar.
func TestValueFormatting(t *testing.T) {
	if got := string(appendValue(nil, 1200000)); got != "1200000" {
		t.Errorf("1200000 -> %q", got)
	}
	if got := string(appendValue(nil, 0.5)); got != "0.5" {
		t.Errorf("0.5 -> %q", got)
	}
	if got := string(appendValue(nil, math.Inf(1))); got != "+Inf" {
		t.Errorf("+Inf -> %q", got)
	}
	if got := string(appendValue(nil, math.NaN())); got != "NaN" {
		t.Errorf("NaN -> %q", got)
	}
}

// TestHistogramVecLabels: le splices behind the child labels.
func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("hv_seconds", "h", []float64{1}, "route")
	hv.With("create").Observe(0.5)
	text := render(t, r)
	for _, line := range []string{
		`hv_seconds_bucket{route="create",le="1"} 1`,
		`hv_seconds_bucket{route="create",le="+Inf"} 1`,
		`hv_seconds_sum{route="create"} 0.5`,
		`hv_seconds_count{route="create"} 1`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("missing %q:\n%s", line, text)
		}
	}
}

// TestExpositionGrammar runs every rendered line through a minimal
// grammar check (the same shape the fleet acceptance parser enforces).
func TestExpositionGrammar(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h").Inc()
	r.GaugeVec("b", "h", "k").With("v").Set(1)
	r.Histogram("c_seconds", "h", nil).Observe(0.2)
	sc := bufio.NewScanner(strings.NewReader(render(t, r)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Errorf("malformed comment %q", line)
			}
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Errorf("malformed sample %q", line)
		}
	}
}
