package config_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdsf/internal/config"
	"cdsf/internal/experiments"
	"cdsf/internal/robustness"
	"cdsf/internal/sysmodel"
)

const paperJSON = `{
  "name": "paper",
  "deadline": 3250,
  "types": [
    {"name": "Type 1", "count": 4,
     "availability": [{"value": 75, "probability": 50}, {"value": 100, "probability": 50}]},
    {"name": "Type 2", "count": 8,
     "availability": [{"value": 25, "probability": 25}, {"value": 50, "probability": 25}, {"value": 100, "probability": 50}]}
  ],
  "applications": [
    {"name": "App 1", "serialIterations": 439, "parallelIterations": 1024,
     "execTimes": [{"mean": 1800}, {"mean": 4000}]},
    {"name": "App 2", "serialIterations": 512, "parallelIterations": 2048,
     "execTimes": [{"mean": 2800}, {"mean": 6000}]},
    {"name": "App 3", "serialIterations": 216, "parallelIterations": 4104,
     "execTimes": [{"mean": 12000}, {"mean": 8000}]}
  ]
}`

// read parses and builds an instance document.
func read(src string) (*sysmodel.System, sysmodel.Batch, float64, error) {
	inst, err := config.Parse(strings.NewReader(src))
	if err != nil {
		return nil, nil, 0, err
	}
	return config.Build(inst)
}

func TestReadPaperInstanceMatchesEmbedded(t *testing.T) {
	sys, batch, deadline, err := read(paperJSON)
	if err != nil {
		t.Fatal(err)
	}
	if deadline != 3250 {
		t.Errorf("deadline = %v", deadline)
	}
	if sys.TotalProcessors() != 12 || len(sys.Types) != 2 {
		t.Error("system mismatch")
	}
	if math.Abs(sys.WeightedAvailability()-0.75) > 1e-12 {
		t.Errorf("weighted availability = %v", sys.WeightedAvailability())
	}
	// The loaded instance reproduces the paper's phi1.
	phi, err := robustness.StageIProbability(sys, batch, experiments.PaperRobustAllocation(), deadline)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(phi-0.745) > 0.01 {
		t.Errorf("phi1 from JSON instance = %v, want ~0.745", phi)
	}
}

func TestReadRejectsBadInstances(t *testing.T) {
	bads := []string{
		`{`,
		`{"deadline": 0, "types": [], "applications": []}`,
		`{"deadline": 100, "types": [], "applications": [{"serialIterations":1,"parallelIterations":1,"execTimes":[]}]}`,
		`{"deadline": 100, "types": [{"count":1,"availability":[{"value":1,"probability":1}]}], "applications": []}`,
		// Wrong execTimes arity.
		`{"deadline": 100, "types": [{"count":1,"availability":[{"value":1,"probability":1}]}],
		  "applications": [{"serialIterations":1,"parallelIterations":1,"execTimes":[]}]}`,
		// Both mean and pulses.
		`{"deadline": 100, "types": [{"count":1,"availability":[{"value":1,"probability":1}]}],
		  "applications": [{"serialIterations":1,"parallelIterations":1,
		   "execTimes":[{"mean": 5, "pulses":[{"value":5,"probability":1}]}]}]}`,
		// Neither mean nor pulses.
		`{"deadline": 100, "types": [{"count":1,"availability":[{"value":1,"probability":1}]}],
		  "applications": [{"serialIterations":1,"parallelIterations":1,"execTimes":[{}]}]}`,
		// Unknown field.
		`{"deadline": 100, "bogus": 1, "types": [], "applications": []}`,
		// Availability above 100%.
		`{"deadline": 100, "types": [{"count":1,"availability":[{"value":150,"probability":1}]}],
		  "applications": [{"serialIterations":1,"parallelIterations":1,"execTimes":[{"mean":5}]}]}`,
	}
	for i, s := range bads {
		if _, _, _, err := read(s); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestExplicitPulses(t *testing.T) {
	src := `{
	  "deadline": 100,
	  "types": [{"count": 2, "availability": [{"value": 0.5, "probability": 1}]}],
	  "applications": [{"serialIterations": 1, "parallelIterations": 9,
	    "execTimes": [{"pulses": [{"value": 40, "probability": 0.5}, {"value": 60, "probability": 0.5}]}]}]
	}`
	_, batch, _, err := read(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := batch[0].ExecTime[0].Mean(); got != 50 {
		t.Errorf("explicit PMF mean = %v", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := config.LoadInstance(filepath.Join(os.TempDir(), "definitely-not-here.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildCases(t *testing.T) {
	src := paperJSON[:len(paperJSON)-2] + `,
  "cases": [
    {"name": "Case 2",
     "availability": [
       [{"value": 50, "probability": 90}, {"value": 75, "probability": 10}],
       [{"value": 33, "probability": 45}, {"value": 66, "probability": 45}, {"value": 100, "probability": 10}]
     ]}
  ]
}`
	var inst config.Instance
	if err := jsonUnmarshal(src, &inst); err != nil {
		t.Fatal(err)
	}
	cases, err := config.BuildCases(&inst)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 1 || cases[0].Name != "Case 2" {
		t.Fatalf("cases = %+v", cases)
	}
	if got := cases[0].Avail[0].Mean(); math.Abs(got-0.525) > 1e-9 {
		t.Errorf("case avail mean = %v", got)
	}
	// Wrong arity fails.
	inst.Cases[0].Availability = inst.Cases[0].Availability[:1]
	if _, err := config.BuildCases(&inst); err == nil {
		t.Error("mismatched case arity accepted")
	}
}

func TestLoadFull(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inst.json")
	src := paperJSON[:len(paperJSON)-2] + `,
  "cases": [
    {"availability": [
       [{"value": 1, "probability": 1}],
       [{"value": 0.5, "probability": 1}]
     ]}
  ]
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	inst, err := config.LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	sys, batch, deadline, err := config.Build(inst)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := config.BuildCases(inst)
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil || len(batch) != 3 || deadline != 3250 {
		t.Fatal("model objects wrong")
	}
	if len(cases) != 1 || cases[0].Name != "Case 1" {
		t.Fatalf("cases = %+v", cases)
	}
}

// TestMarshalRejectsNonFinite pins the cache-hasher guard: Marshal
// fails up front on NaN/±Inf, naming the offending field by its JSON
// path instead of encoding/json's generic "unsupported value".
func TestMarshalRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	base := func() *config.Instance {
		var inst config.Instance
		if err := jsonUnmarshal(paperJSON, &inst); err != nil {
			t.Fatal(err)
		}
		inst.Cases = []config.CaseSpec{{Name: "c", Availability: [][]PulseSpecAlias{
			{{Value: 1, Probability: 1}},
			{{Value: 0.5, Probability: 1}},
		}}}
		return &inst
	}

	cases := []struct {
		name   string
		mutate func(*config.Instance)
		path   string
	}{
		{"deadline", func(i *config.Instance) { i.Deadline = nan }, "deadline: non-finite value NaN"},
		{"avail value", func(i *config.Instance) { i.Types[1].Availability[2].Value = inf },
			"types[1].availability[2].value: non-finite value +Inf"},
		{"avail prob", func(i *config.Instance) { i.Types[0].Availability[0].Probability = nan },
			"types[0].availability[0].probability: non-finite value NaN"},
		{"exec mean", func(i *config.Instance) { i.Applications[2].ExecTimes[0].Mean = nan },
			"applications[2].execTimes[0].mean: non-finite value NaN"},
		{"exec sigma", func(i *config.Instance) { i.Applications[0].ExecTimes[1].Sigma = math.Inf(-1) },
			"applications[0].execTimes[1].sigma: non-finite value -Inf"},
		{"exec pulse", func(i *config.Instance) {
			i.Applications[1].ExecTimes[0].Pulses = []PulseSpecAlias{{Value: nan, Probability: 1}}
		}, "applications[1].execTimes[0].pulses[0].value: non-finite value NaN"},
		{"case pulse", func(i *config.Instance) { i.Cases[0].Availability[1][0].Probability = inf },
			"cases[0].availability[1][0].probability: non-finite value +Inf"},
	}
	for _, tc := range cases {
		inst := base()
		tc.mutate(inst)
		_, err := config.Marshal(inst)
		if err == nil {
			t.Errorf("%s: non-finite value marshaled", tc.name)
			continue
		}
		if want := "config: " + tc.path; err.Error() != want {
			t.Errorf("%s: error = %q, want %q", tc.name, err, want)
		}
	}

	// The untouched document still marshals, and canonically.
	doc, err := config.Marshal(base())
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := config.Marshal(base())
	if err != nil || string(doc) != string(doc2) {
		t.Error("canonical marshal is not byte-stable")
	}
}

// PulseSpecAlias keeps the table above readable.
type PulseSpecAlias = config.PulseSpec

// jsonUnmarshal mirrors Read's strict decoding for test inputs.
func jsonUnmarshal(src string, inst *config.Instance) error {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.DisallowUnknownFields()
	return dec.Decode(inst)
}
