package jobcore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"latchchar/serveclient"
)

// FuzzResolve decodes arbitrary bytes into a CharacterizeRequest as the
// HTTP handlers do (unknown fields rejected) and resolves it. Resolve must
// never panic. A request it accepts must get a real coalescing key, never
// the unkeyed- fallback, and the same key with fast_path toggled; its cell
// must build or return an error.
func FuzzResolve(f *testing.F) {
	deck, err := os.ReadFile(filepath.Join("..", "..", "..", "examples", "netlists", "tspc.cir"))
	if err != nil {
		f.Fatal(err)
	}
	// The deck without its comments: a shorter seed minimizes faster.
	var lines []string
	for _, l := range strings.Split(string(deck), "\n") {
		if l != "" && !strings.HasPrefix(l, "*") {
			lines = append(lines, l)
		}
	}
	inline, err := json.Marshal(serveclient.CharacterizeRequest{Cell: "deck", Netlist: strings.Join(lines, "\n")})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(inline),
		`{"cell":"tspc","options":{"points":3}}`,
		`{"cell":"c2mos","process":{"VDD":2.2,"NMOS":{"VT0":0.5}},"options":{"points":4,"method":"trap","fast_path":true}}`,
		`{"cell":"tgate","timing":{"Period":4e-9,"EdgeIndex":2},"options":{"block":8,"both_directions":true,"step_ps":2.5}}`,
		`{"cell":"tspc","options":{"mc_samples":4,"sampler":"sobol","seed":3,"mc_probes":6,"sigma_level":2}}`,
		`{"cell":"tspc","options":{"resample":12,"degrade":0.2,"max_setup_skew_ps":800},"wait":true,"no_cache":true}`,
		`{"cell":"nope"}`,
		`{"cell":"tspc","options":{"method":"gear"}}`,
		`{"cell":"tspc","options":{"points":-1}}`,
		`{"cell":"tspc","bogus":1}`,
		`{"netlist":"R1 a b 1k\n","process":{"VDD":1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req serveclient.CharacterizeRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		cell, _, key, err := Resolve(&req)
		if err != nil {
			return
		}
		if strings.HasPrefix(key, "unkeyed-") || !strings.HasPrefix(key, "v1:") {
			t.Fatalf("accepted request got key %q", key)
		}
		toggled := req
		toggled.Options.FastPath = !req.Options.FastPath
		_, _, key2, err := Resolve(&toggled)
		if err != nil {
			t.Fatalf("toggling fast_path rejects an accepted request: %v", err)
		}
		if key2 != key {
			t.Fatalf("toggling fast_path moves the key from %s to %s", key, key2)
		}
		if inst, err := cell.Build(); err == nil && inst == nil {
			t.Fatal("the cell built neither an instance nor an error")
		}
	})
}
