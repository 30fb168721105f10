package discovery

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func stringColumn(name string, vals ...string) *dataset.Column {
	c := &dataset.Column{Name: name}
	for _, v := range vals {
		c.Values = append(c.Values, dataset.String(v))
	}
	return c
}

func TestMinHashJaccardAccuracy(t *testing.T) {
	// Two sets with known overlap: |A|=|B|=200, |A∩B|=100 -> J = 1/3.
	var a, b []string
	for i := 0; i < 100; i++ {
		shared := fmt.Sprintf("s%03d", i)
		a = append(a, shared, fmt.Sprintf("a%03d", i))
		b = append(b, shared, fmt.Sprintf("b%03d", i))
	}
	pa := ProfileColumn("ta", stringColumn("x", a...))
	pb := ProfileColumn("tb", stringColumn("y", b...))
	j := EstimateJaccard(pa, pb)
	if math.Abs(j-1.0/3.0) > 0.12 {
		t.Errorf("Jaccard estimate %v, want ~0.333", j)
	}
	// Containment of A in B = 0.5.
	c := EstimateContainment(pa, pb)
	if math.Abs(c-0.5) > 0.15 {
		t.Errorf("containment estimate %v, want ~0.5", c)
	}
}

func TestMinHashIdenticalAndDisjoint(t *testing.T) {
	var xs []string
	for i := 0; i < 50; i++ {
		xs = append(xs, fmt.Sprintf("v%d", i))
	}
	p1 := ProfileColumn("a", stringColumn("c", xs...))
	p2 := ProfileColumn("b", stringColumn("d", xs...))
	if j := EstimateJaccard(p1, p2); j != 1 {
		t.Errorf("identical sets Jaccard = %v", j)
	}
	var ys []string
	for i := 0; i < 50; i++ {
		ys = append(ys, fmt.Sprintf("w%d", i))
	}
	p3 := ProfileColumn("c", stringColumn("e", ys...))
	if j := EstimateJaccard(p1, p3); j > 0.1 {
		t.Errorf("disjoint sets Jaccard = %v", j)
	}
}

func TestDiscoverJoinsFindsPlantedJoin(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 80, Seed: 2})
	cands := DiscoverJoins(spec.DB, "expenses", Options{})
	found := false
	for _, c := range cands {
		if c.BaseColumn == "name" && c.Table == "order_info" && c.Column == "name" {
			found = true
		}
	}
	if !found {
		t.Errorf("planted name join not discovered; got %+v", cands)
	}
}

func TestMaterializeAttachesColumns(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 60, Seed: 3})
	out, cands := Materialize(spec.DB, "expenses", Options{})
	if out == nil || len(cands) == 0 {
		t.Fatal("nothing materialized")
	}
	if out.NumRows() != 60 {
		t.Errorf("row count changed: %d", out.NumRows())
	}
	if out.NumCols() <= spec.DB.Table("expenses").NumCols() {
		t.Error("no columns attached")
	}
}

func TestProfileDatabaseCoversAllColumns(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 10, Seed: 4})
	profiles := ProfileDatabase(spec.DB)
	if len(profiles) != spec.DB.TotalAttributes() {
		t.Errorf("profiles = %d, want %d", len(profiles), spec.DB.TotalAttributes())
	}
}

func TestDiscoverJoinsLSHPathMatchesScan(t *testing.T) {
	spec := synth.Student(synth.StudentOptions{Students: 80, Seed: 2})
	scan := DiscoverJoins(spec.DB, "expenses", Options{})
	lsh := DiscoverJoins(spec.DB, "expenses", Options{UseLSH: true})
	key := func(c CandidateJoin) string {
		return c.BaseColumn + "|" + c.Table + "|" + c.Column
	}
	scanSet := map[string]bool{}
	for _, c := range scan {
		scanSet[key(c)] = true
	}
	for _, c := range lsh {
		if !scanSet[key(c)] {
			t.Errorf("LSH found %v absent from scan", c)
		}
	}
	// The planted join must survive the LSH path too.
	found := false
	for _, c := range lsh {
		if c.BaseColumn == "name" && c.Table == "order_info" {
			found = true
		}
	}
	if !found {
		t.Error("LSH path lost the planted join")
	}
}

// Property: Jaccard estimates are symmetric and bounded.
func TestJaccardSymmetryProperty(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		var a, b []string
		for i := 0; i < 30; i++ {
			a = append(a, fmt.Sprintf("x%d", (int(seedA)+i*7)%40))
			b = append(b, fmt.Sprintf("x%d", (int(seedB)+i*3)%40))
		}
		pa := ProfileColumn("a", stringColumn("c", a...))
		pb := ProfileColumn("b", stringColumn("d", b...))
		j1, j2 := EstimateJaccard(pa, pb), EstimateJaccard(pb, pa)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDiscoverJoinsDeterministic protects against map-iteration order
// leaking into the candidate list: several base columns sharing a value
// domain tie on containment, and the MaxJoins cut must still pick the
// same candidates every run.
func TestDiscoverJoinsDeterministic(t *testing.T) {
	var vals []string
	for i := 0; i < 40; i++ {
		vals = append(vals, fmt.Sprintf("v%d", i))
	}
	base := &dataset.Table{Name: "base", Columns: []*dataset.Column{
		stringColumn("c1", vals...),
		stringColumn("c2", vals...),
		stringColumn("c3", vals...),
		stringColumn("c4", vals...),
	}}
	other := &dataset.Table{Name: "other", Columns: []*dataset.Column{
		stringColumn("k", vals...),
	}}
	db := dataset.NewDatabase(base, other)

	for _, lsh := range []bool{false, true} {
		opts := Options{MaxJoins: 2, UseLSH: lsh}
		ref := DiscoverJoins(db, "base", opts)
		if len(ref) != 2 {
			t.Fatalf("lsh=%v: expected MaxJoins cut to 2 candidates, got %d", lsh, len(ref))
		}
		for run := 0; run < 20; run++ {
			got := DiscoverJoins(db, "base", opts)
			if len(got) != len(ref) {
				t.Fatalf("lsh=%v run %d: %d candidates vs %d", lsh, run, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("lsh=%v run %d: candidate %d = %+v vs %+v", lsh, run, i, got[i], ref[i])
				}
			}
		}
	}
}
