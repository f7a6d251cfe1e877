package jobcore

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"latchchar"
	"latchchar/serveclient"
)

func TestRequestKeyStability(t *testing.T) {
	cell, err := latchchar.CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	r1 := &serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 3}}
	r2 := &serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 3}, Wait: true, NoCache: true}
	if RequestKey(r1, cell) != RequestKey(r2, cell) {
		t.Error("wait/no_cache must not affect the coalescing key")
	}
	r3 := &serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 4}}
	if RequestKey(r1, cell) == RequestKey(r3, cell) {
		t.Error("different options share a key")
	}
	if !strings.HasPrefix(RequestKey(r1, cell), "v1:") {
		t.Error("key missing version prefix")
	}

	// The coordinator derives the key via Resolve before forwarding; it must
	// match the worker's own derivation exactly, or cross-node coalescing
	// silently stops working.
	_, _, key, err := Resolve(r1)
	if err != nil {
		t.Fatal(err)
	}
	if key != RequestKey(r1, cell) {
		t.Error("Resolve key differs from RequestKey")
	}
}

// TestFastPathOptionMapping pins fast_path as an ignored wire option: it
// maps to the same characterization options as a request without it, and it
// does not split the coalescing key, so identical work still coalesces,
// shares the result LRU and lands on the same ring owner.
func TestFastPathOptionMapping(t *testing.T) {
	exact := serveclient.OptionsRequest{Points: 3}
	fast := exact
	fast.FastPath = true
	exactOpts, err := ToOptions(exact)
	if err != nil {
		t.Fatal(err)
	}
	fastOpts, err := ToOptions(fast)
	if err != nil {
		t.Fatal(err)
	}
	if fastOpts != exactOpts {
		t.Errorf("fast_path changes the options: %+v vs %+v", fastOpts, exactOpts)
	}
	cell, err := latchchar.CellByName("tspc")
	if err != nil {
		t.Fatal(err)
	}
	exactReq := &serveclient.CharacterizeRequest{Cell: "tspc", Options: exact}
	fastReq := &serveclient.CharacterizeRequest{Cell: "tspc", Options: fast}
	if RequestKey(exactReq, cell) != RequestKey(fastReq, cell) {
		t.Error("fast_path splits the coalescing key")
	}
}

func TestResolveMC(t *testing.T) {
	req := &serveclient.CharacterizeRequest{
		Cell: "tspc",
		Options: serveclient.OptionsRequest{
			Points: 3, MCSamples: 4, Sampler: "sobol", Seed: 9, MCProbes: 6, SigmaLevel: 2,
		},
	}
	mk, nominal, mcOpts, key, err := ResolveMC(req)
	if err != nil {
		t.Fatal(err)
	}
	if mcOpts.Samples != 4 || mcOpts.Sampler != latchchar.SamplerSobol ||
		mcOpts.Seed != 9 || mcOpts.Probes != 6 || mcOpts.SigmaLevel != 2 {
		t.Errorf("mc options mis-mapped: %+v", mcOpts)
	}
	if mcOpts.Characterize.Points != 3 {
		t.Errorf("characterize options mis-mapped: points = %d", mcOpts.Characterize.Points)
	}
	if cell := mk(nominal); cell == nil || cell.Name != "tspc" {
		t.Error("cell maker does not rebuild the nominal cell")
	}

	// The MC parameters must participate in the coalescing key, and an MC
	// request must never share a key with the plain request it wraps.
	plain := &serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 3}}
	cell, _ := latchchar.CellByName("tspc")
	if key == RequestKey(plain, cell) {
		t.Error("MC request shares a key with the plain request")
	}
	other := *req
	other.Options.Seed = 10
	_, _, _, key2, err := ResolveMC(&other)
	if err != nil {
		t.Fatal(err)
	}
	if key == key2 {
		t.Error("different MC seeds share a coalescing key")
	}
	// The coordinator derives MC keys through Resolve; it must agree.
	_, _, rkey, err := Resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	if rkey != key {
		t.Error("Resolve key differs from ResolveMC key")
	}

	bad := &serveclient.CharacterizeRequest{Netlist: "x", Options: serveclient.OptionsRequest{MCSamples: 4}}
	if _, _, _, _, err := ResolveMC(bad); err == nil {
		t.Error("inline netlist accepted for monte-carlo")
	}
	badSampler := *req
	badSampler.Options.Sampler = "dartboard"
	if _, _, _, _, err := ResolveMC(&badSampler); err == nil {
		t.Error("unknown sampler accepted")
	}
}

func TestResolveBatchKeys(t *testing.T) {
	req := &serveclient.BatchRequest{Jobs: []serveclient.BatchJobRequest{
		{Name: "a", CharacterizeRequest: serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 3}}},
		{Name: "b", CharacterizeRequest: serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 4}}},
		{Name: "c", CharacterizeRequest: serveclient.CharacterizeRequest{Cell: "tspc", Options: serveclient.OptionsRequest{Points: 3}}},
	}}
	jobs, keys, err := ResolveBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || len(keys) != 3 {
		t.Fatalf("jobs=%d keys=%d", len(jobs), len(keys))
	}
	if keys[0] != keys[2] {
		t.Error("identical batch items must share a key (cluster partitioning relies on it)")
	}
	if keys[0] == keys[1] {
		t.Error("distinct batch items share a key")
	}
}

// The wire result carries the engine's layer split of the transient wall
// time next to wall_ms, and a client decodes it back.
func TestRenderResultCarriesTheLayerSplit(t *testing.T) {
	res := &latchchar.Result{Contour: &latchchar.Contour{}}
	res.Stats.Wall = 12 * time.Millisecond
	res.Stats.LU = 4500 * time.Microsecond
	res.Stats.DeviceEval = 3250 * time.Microsecond
	res.Stats.Sens = 1125 * time.Microsecond
	out := RenderResult("tspc", res)
	want := serveclient.StatsJSON{WallMS: 12, LUMS: 4.5, DeviceMS: 3.25, SensMS: 1.125}
	if out.Stats != want {
		t.Fatalf("rendered stats %+v, want %+v", out.Stats, want)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"wall_ms":12`, `"lu_ms":4.5`, `"device_ms":3.25`, `"sens_ms":1.125`} {
		if !strings.Contains(string(raw), field) {
			t.Errorf("wire result lacks %s: %s", field, raw)
		}
	}
	var back serveclient.ResultJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stats != want {
		t.Errorf("decoded stats %+v, want %+v", back.Stats, want)
	}
}
