package trace

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestAttributeString(t *testing.T) {
	cases := map[Attribute]string{
		Temperature:  "temperature",
		Humidity:     "humidity",
		Voltage:      "voltage",
		Attribute(9): "attribute(9)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
}

func TestDefaultEpsilon(t *testing.T) {
	if Temperature.DefaultEpsilon() != 0.5 {
		t.Error("temperature ε should be 0.5")
	}
	if Humidity.DefaultEpsilon() != 2.0 {
		t.Error("humidity ε should be 2.0")
	}
	if Voltage.DefaultEpsilon() != 0.1 {
		t.Error("voltage ε should be 0.1")
	}
}

func TestNodeDistance(t *testing.T) {
	a := Node{ID: 0, X: 0, Y: 0}
	b := Node{ID: 1, X: 3, Y: 4}
	if d := a.Distance(b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance = %v, want 5", d)
	}
}

func TestDeployments(t *testing.T) {
	g := GardenDeployment()
	if g.N() != 11 {
		t.Fatalf("garden N = %d, want 11", g.N())
	}
	l := LabDeployment()
	if l.N() != 49 {
		t.Fatalf("lab N = %d, want 49", l.N())
	}
	seen := map[int]bool{}
	for _, nd := range l.Nodes {
		if seen[nd.ID] {
			t.Fatalf("duplicate node ID %d", nd.ID)
		}
		seen[nd.ID] = true
	}
}

func TestGenerateShapes(t *testing.T) {
	tr, err := GenerateGarden(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steps() != 200 {
		t.Fatalf("steps = %d, want 200", tr.Steps())
	}
	for _, a := range Attributes {
		rows, err := tr.Rows(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 200 || len(rows[0]) != 11 {
			t.Fatalf("%v shape = %dx%d", a, len(rows), len(rows[0]))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateGarden(42, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateGarden(42, 50)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := a.Rows(Temperature)
	rb, _ := b.Rows(Temperature)
	for t2 := range ra {
		for i := range ra[t2] {
			if ra[t2][i] != rb[t2][i] {
				t.Fatalf("same seed diverged at (%d,%d)", t2, i)
			}
		}
	}
	c, err := GenerateGarden(43, 50)
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := c.Rows(Temperature)
	same := true
	for t2 := range ra {
		for i := range ra[t2] {
			if ra[t2][i] != rc[t2][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(&Deployment{Name: "empty"}, GardenConfig(1, 10)); err == nil {
		t.Fatal("expected error for empty deployment")
	}
	cfg := GardenConfig(1, 0)
	if _, err := Generate(GardenDeployment(), cfg); err == nil {
		t.Fatal("expected error for zero steps")
	}
	cfg = GardenConfig(1, 10)
	cfg.StepMinutes = 0
	if _, err := Generate(GardenDeployment(), cfg); err == nil {
		t.Fatal("expected error for zero step duration")
	}
}

func TestDiurnalCycle(t *testing.T) {
	// Over 10 days of hourly samples, mean afternoon temperature must
	// exceed mean pre-dawn temperature by a few degrees.
	tr, err := GenerateGarden(7, 240)
	if err != nil {
		t.Fatal(err)
	}
	col, err := tr.Column(Temperature, 5)
	if err != nil {
		t.Fatal(err)
	}
	var dawn, noon []float64
	for h, v := range col {
		switch h % 24 {
		case 4, 5:
			dawn = append(dawn, v)
		case 14, 15:
			noon = append(noon, v)
		}
	}
	if len(dawn) == 0 || len(noon) == 0 {
		t.Fatal("sampling buckets empty")
	}
	// The preset diurnal half-swing is 2.2 °C; afternoon minus pre-dawn
	// should recover most of the peak-to-peak amplitude.
	if meanOf(noon)-meanOf(dawn) < 2 {
		t.Fatalf("diurnal swing too small: dawn %v noon %v", meanOf(dawn), meanOf(noon))
	}
}

func meanOf(a []float64) float64 {
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s / float64(len(a))
}

func TestSpatialCorrelationDecays(t *testing.T) {
	// Nearby lab nodes must correlate more strongly than distant ones.
	tr, err := GenerateLab(3, 600)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := tr.Rows(Temperature)
	near := corrOf(rows, 0, 1) // adjacent in grid
	far := corrOf(rows, 0, 48) // opposite corners
	if near <= far {
		t.Fatalf("spatial correlation does not decay: near=%v far=%v", near, far)
	}
}

// corrOf computes the Pearson correlation of two node columns.
func corrOf(rows [][]float64, i, j int) float64 {
	var xi, xj []float64
	for _, r := range rows {
		xi = append(xi, r[i])
		xj = append(xj, r[j])
	}
	mi, mj := meanOf(xi), meanOf(xj)
	var sij, sii, sjj float64
	for t := range xi {
		di, dj := xi[t]-mi, xj[t]-mj
		sij += di * dj
		sii += di * di
		sjj += dj * dj
	}
	return sij / math.Sqrt(sii*sjj)
}

func TestHumidityAnticorrelatedWithTemperature(t *testing.T) {
	tr, err := GenerateGarden(4, 400)
	if err != nil {
		t.Fatal(err)
	}
	temp, _ := tr.Column(Temperature, 0)
	hum, _ := tr.Column(Humidity, 0)
	rows := make([][]float64, len(temp))
	for i := range temp {
		rows[i] = []float64{temp[i], hum[i]}
	}
	if c := corrOf(rows, 0, 1); c >= -0.5 {
		t.Fatalf("temp/humidity correlation = %v, want strongly negative", c)
	}
}

func TestVoltageDrains(t *testing.T) {
	tr, err := GenerateGarden(5, 3000)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tr.Column(Voltage, 3)
	early := meanOf(v[:200])
	late := meanOf(v[len(v)-200:])
	if late >= early {
		t.Fatalf("battery did not drain: early %v late %v", early, late)
	}
}

func TestLabHarderThanGarden(t *testing.T) {
	// After removing the (predictable) diurnal profile, the lab's residual
	// one-step changes must exceed the garden's: HVAC jumps plus weaker
	// correlation make the lab harder to predict — the property underlying
	// the paper's Fig 9 vs Fig 10 contrast.
	g, err := GenerateGarden(6, 800)
	if err != nil {
		t.Fatal(err)
	}
	l, err := GenerateLab(6, 800)
	if err != nil {
		t.Fatal(err)
	}
	if gv, lv := meanAbsResidualStep(g), meanAbsResidualStep(l); lv <= gv {
		t.Fatalf("lab not harder: garden residual step %v, lab residual step %v", gv, lv)
	}
}

// meanAbsResidualStep deseasonalises each node's temperature series by its
// hour-of-day mean profile and returns the mean absolute one-step change of
// the residual.
func meanAbsResidualStep(tr *Trace) float64 {
	rows, _ := tr.Rows(Temperature)
	n := len(rows[0])
	res := make([][]float64, len(rows))
	for i := range res {
		res[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		var profile [24]float64
		var count [24]int
		for t := range rows {
			profile[t%24] += rows[t][j]
			count[t%24]++
		}
		for h := range profile {
			profile[h] /= float64(count[h])
		}
		for t := range rows {
			res[t][j] = rows[t][j] - profile[t%24]
		}
	}
	s, c := 0.0, 0
	for t := 1; t < len(res); t++ {
		for i := range res[t] {
			s += math.Abs(res[t][i] - res[t-1][i])
			c++
		}
	}
	return s / float64(c)
}

func TestColumnErrors(t *testing.T) {
	tr, err := GenerateGarden(9, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Column(Temperature, 99); err == nil {
		t.Fatal("expected error for bad node")
	}
	empty := &Trace{Deployment: GardenDeployment(), Data: map[Attribute][][]float64{}}
	if _, err := empty.Rows(Temperature); err == nil {
		t.Fatal("expected error for missing attribute")
	}
}

func TestMultiAttr(t *testing.T) {
	tr, err := GenerateGarden(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tr.MultiAttr(2, []Attribute{Temperature, Voltage})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 20 || len(m[0]) != 2 {
		t.Fatalf("multiattr shape %dx%d", len(m), len(m[0]))
	}
	temp, _ := tr.Column(Temperature, 2)
	if m[5][0] != temp[5] {
		t.Fatal("multiattr column mismatch")
	}
	if _, err := tr.MultiAttr(2, nil); err == nil {
		t.Fatal("expected error for empty attribute list")
	}
}

func TestInjectAnomaly(t *testing.T) {
	tr, err := GenerateGarden(11, 50)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := tr.Column(Temperature, 4)
	base := before[10]
	if err := tr.InjectAnomaly(Temperature, 4, 10, 12, 30); err != nil {
		t.Fatal(err)
	}
	after, _ := tr.Column(Temperature, 4)
	if math.Abs(after[10]-base-30) > 1e-12 {
		t.Fatalf("anomaly not applied: %v -> %v", base, after[10])
	}
	if after[12] != before[12] {
		t.Fatal("anomaly leaked past window")
	}
	if err := tr.InjectAnomaly(Temperature, 99, 0, 1, 1); err == nil {
		t.Fatal("expected error for bad node")
	}
	if err := tr.InjectAnomaly(Temperature, 0, 10, 5, 1); err == nil {
		t.Fatal("expected error for inverted window")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, err := GenerateGarden(13, 25)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf, Humidity); err != nil {
		t.Fatal(err)
	}
	got, step, err := ReadCSVMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if step != tr.StepMinutes {
		t.Fatalf("inferred step = %v, want %v", step, tr.StepMinutes)
	}
	want, _ := tr.Rows(Humidity)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for t2 := range want {
		for i := range want[t2] {
			if math.Abs(got[t2][i]-want[t2][i]) > 1e-6 {
				t.Fatalf("round trip diverged at (%d,%d): %v vs %v", t2, i, got[t2][i], want[t2][i])
			}
		}
	}
}

func TestReadCSVMatrixErrors(t *testing.T) {
	if _, _, err := ReadCSVMatrix(bytes.NewBufferString("")); err == nil {
		t.Fatal("expected error for empty csv")
	}
	if _, _, err := ReadCSVMatrix(bytes.NewBufferString("minute,node0\nbad,1\n")); err == nil {
		t.Fatal("expected error for non-numeric minute")
	}
	if _, _, err := ReadCSVMatrix(bytes.NewBufferString("minute,node0\n0,notanumber\n")); err == nil {
		t.Fatal("expected error for non-numeric value")
	}
}

func TestFromMatrixAndFromCSV(t *testing.T) {
	d := GardenDeployment()
	rows := make([][]float64, 5)
	for i := range rows {
		row := make([]float64, d.N())
		for j := range row {
			row[j] = float64(i*100 + j)
		}
		rows[i] = row
	}
	tr, err := FromMatrix(d, Temperature, rows, 30)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steps() != 5 || tr.StepMinutes != 30 {
		t.Fatalf("steps %d, minutes %v", tr.Steps(), tr.StepMinutes)
	}
	col, err := tr.Column(Temperature, 3)
	if err != nil {
		t.Fatal(err)
	}
	if col[2] != 203 {
		t.Fatalf("col[2] = %v", col[2])
	}
	// Round trip through CSV.
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf, Temperature); err != nil {
		t.Fatal(err)
	}
	back, err := FromCSV(&buf, d, Temperature)
	if err != nil {
		t.Fatal(err)
	}
	if back.StepMinutes != 30 {
		t.Fatalf("round-trip minutes %v", back.StepMinutes)
	}
	got, _ := back.Column(Temperature, 3)
	if got[2] != 203 {
		t.Fatalf("round-trip col = %v", got[2])
	}
	// Validation.
	if _, err := FromMatrix(nil, Temperature, rows, 30); err == nil {
		t.Fatal("expected error for nil deployment")
	}
	if _, err := FromMatrix(d, Temperature, nil, 30); err == nil {
		t.Fatal("expected error for no rows")
	}
	if _, err := FromMatrix(d, Temperature, [][]float64{{1}}, 30); err == nil {
		t.Fatal("expected error for node mismatch")
	}
	if _, err := FromMatrix(d, Temperature, rows, 0); err == nil {
		t.Fatal("expected error for zero step")
	}
}

func TestFillGaps(t *testing.T) {
	nan := math.NaN()
	rows := [][]float64{
		{nan, 5},
		{10, nan},
		{nan, nan},
		{nan, 8},
		{16, nan},
	}
	if err := FillGaps(rows, 3); err != nil {
		t.Fatal(err)
	}
	// Column 0: leading backfill 10; interior gap 10→16 over 3 steps.
	if rows[0][0] != 10 {
		t.Fatalf("leading fill = %v", rows[0][0])
	}
	if math.Abs(rows[2][0]-12) > 1e-12 || math.Abs(rows[3][0]-14) > 1e-12 {
		t.Fatalf("interpolation = %v, %v want 12, 14", rows[2][0], rows[3][0])
	}
	// Column 1: interior 5→8 over rows 1..2; trailing forward fill 8.
	if math.Abs(rows[1][1]-6) > 1e-12 || math.Abs(rows[2][1]-7) > 1e-12 {
		t.Fatalf("interpolation = %v, %v want 6, 7", rows[1][1], rows[2][1])
	}
	if rows[4][1] != 8 {
		t.Fatalf("trailing fill = %v", rows[4][1])
	}
	for _, r := range rows {
		for _, v := range r {
			if math.IsNaN(v) {
				t.Fatal("NaN survived FillGaps")
			}
		}
	}
}

func TestFillGapsErrors(t *testing.T) {
	nan := math.NaN()
	if err := FillGaps(nil, 3); err == nil {
		t.Fatal("expected error for empty matrix")
	}
	if err := FillGaps([][]float64{{1}}, 0); err == nil {
		t.Fatal("expected error for maxGap 0")
	}
	if err := FillGaps([][]float64{{1, 2}, {1}}, 3); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	// Gap longer than maxGap.
	long := [][]float64{{1}, {nan}, {nan}, {nan}, {5}}
	if err := FillGaps(long, 2); err == nil {
		t.Fatal("expected error for oversized gap")
	}
	// Column with no data.
	if err := FillGaps([][]float64{{nan}, {nan}}, 3); err == nil {
		t.Fatal("expected error for empty column")
	}
	// Oversized leading gap.
	lead := [][]float64{{nan}, {nan}, {nan}, {4}}
	if err := FillGaps(lead, 2); err == nil {
		t.Fatal("expected error for oversized leading gap")
	}
	// Oversized trailing gap.
	trail := [][]float64{{4}, {nan}, {nan}, {nan}}
	if err := FillGaps(trail, 2); err == nil {
		t.Fatal("expected error for oversized trailing gap")
	}
}

func TestFillGapsCleanMatrixUntouched(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}}
	want := [][]float64{{1, 2}, {3, 4}}
	if err := FillGaps(rows, 3); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for j := range rows[i] {
			if rows[i][j] != want[i][j] {
				t.Fatal("clean matrix modified")
			}
		}
	}
}

// TestExperimentSplit pins the shared evaluation setup against the block it
// replaced in seven places: temperature rows, a training prefix, the rest
// as the test window, the attribute's default ε per node unless overridden.
func TestExperimentSplit(t *testing.T) {
	tr, err := GenerateGarden(1, 150)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tr.Rows(Temperature)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := tr.Experiment(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Train) != 100 || len(exp.Test) != 50 || &exp.Train[0][0] != &rows[0][0] || &exp.Test[0][0] != &rows[100][0] {
		t.Fatalf("split %d/%d does not share rows[:100]/rows[100:]", len(exp.Train), len(exp.Test))
	}
	if len(exp.Eps) != 11 {
		t.Fatalf("eps has %d entries, want 11", len(exp.Eps))
	}
	for _, e := range exp.Eps {
		if e != 0.5 {
			t.Fatalf("default eps = %v, want 0.5", e)
		}
	}
	over, err := tr.Experiment(100, 2)
	if err != nil || over.Eps[10] != 2 {
		t.Fatalf("eps override: %v, %v", over.Eps, err)
	}
	for _, bad := range []int{-5, 0, 150, 200} {
		if _, err := tr.Experiment(bad, 0); !errors.Is(err, ErrSplit) {
			t.Fatalf("Experiment(%d) on 150 rows: err = %v, want ErrSplit", bad, err)
		}
	}

	loaded, err := LoadExperiment("garden", 1, 100, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, exp) {
		t.Fatal("LoadExperiment differs from generating and splitting by hand")
	}
	lab, err := LoadExperiment("lab", 1, 20, 5, 0)
	if err != nil || len(lab.Eps) != 49 {
		t.Fatalf("lab: %d nodes, %v", len(lab.Eps), err)
	}
	if _, err := LoadExperiment("mars", 1, 100, 50, 0); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: err = %v", err)
	}
	for _, bad := range [][2]int{{-5, 1500}, {200, -150}, {100, 0}, {-5, 2}} {
		if _, err := LoadExperiment("garden", 1, bad[0], bad[1], 0); err == nil {
			t.Fatalf("LoadExperiment(train %d, test %d) accepted", bad[0], bad[1])
		}
	}
}
