package cli

import (
	"reflect"
	"testing"

	erapid "repro"
	"repro/internal/core"
)

func TestParseTiers(t *testing.T) {
	got, err := parseTiers("rack=8x8,count=16")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.TierSpec{{Boards: 8, NodesPerBoard: 8}, {Boards: 16}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTiers = %+v, want %+v", got, want)
	}

	// Key order is free.
	got, err = parseTiers("count=4,rack=2x3")
	if err != nil {
		t.Fatal(err)
	}
	want = []core.TierSpec{{Boards: 2, NodesPerBoard: 3}, {Boards: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseTiers = %+v, want %+v", got, want)
	}

	for _, bad := range []string{
		"",
		"rack=8x8",
		"count=16",
		"rack=8,count=16",
		"rack=8x,count=16",
		"rack=ax8,count=16",
		"rack=8x8,count=b",
		"rack=8x8;count=16",
		"rack=8x8,count=16,depth=2",
	} {
		if _, err := parseTiers(bad); err == nil {
			t.Errorf("parseTiers(%q) accepted", bad)
		}
	}
}

func TestParseLoads(t *testing.T) {
	got, err := parseLoads(" 0.3, 0.7 ,1e-1")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.3, 0.7, 0.1}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseLoads = %v, want %v", got, want)
	}

	got, err = parseLoads("")
	if err != nil {
		t.Fatal(err)
	}
	if want := erapid.PaperLoads(); !reflect.DeepEqual(got, want) {
		t.Errorf("parseLoads(\"\") = %v, want the paper loads %v", got, want)
	}

	// Every token must parse whole: trailing garbage is an error, not a
	// silently truncated load. A load must also be in (0, 1].
	for _, bad := range []string{"0.7x", "0.3,0.7x", "x", "0.3;0.7", "0.5 0.6", ",", " , ",
		"NaN", "Inf", "0", "-0.5", "1.5"} {
		if ls, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) = %v, want an error", bad, ls)
		}
	}
}

// TestPickPatternsEmpty: a -patterns list that names nothing is an
// error, not a sweep of zero simulations.
func TestPickPatternsEmpty(t *testing.T) {
	for _, list := range []string{",", " , ,"} {
		if pats, err := pickPatterns("all", list); err == nil {
			t.Errorf("pickPatterns(%q) = %v, want an error", list, pats)
		}
	}
}

func TestPickScenarios(t *testing.T) {
	all := compareScenarios(erapid.DefaultConfig(erapid.PB))
	got, err := pickScenarios(all, "faulted, headline")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "faulted" || got[1].Name != "headline" {
		t.Errorf("pickScenarios(faulted, headline) = %v", got)
	}
	// "-scenarios ," names nothing: an error, not an empty comparison.
	for _, names := range []string{",", "nope"} {
		if got, err := pickScenarios(all, names); err == nil {
			t.Errorf("pickScenarios(%q) = %v, want an error", names, got)
		}
	}
}
