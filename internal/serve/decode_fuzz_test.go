package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// pointerKnobs names, per request section, the knobs whose zero is a
// request of its own: omitted means "default", an explicit 0 means 0.
var pointerKnobs = map[string][]string{
	"model":      {"pInit", "alpha", "gamma", "pr", "pn"},
	"efficiency": {"pr"},
	"sim":        {"lambda", "initialPeers", "seeds", "seedUpload", "optimisticProb"},
	"fluid":      {"lambda", "theta", "eta", "gamma", "x0", "y0", "seedFraction"},
}

// FuzzDecodeRequest fuzzes the one decoder the replica, every batch item
// and the gateway go through. For every body it accepts:
//   - canonicalization is idempotent: the canonical request re-marshaled
//     and decoded again has the same Canonical() and the same Key() — what
//     lets a tier forward either the bytes it read or its own re-encoding;
//   - Key() is hex(sha256(Canonical())), however it is computed;
//   - every pointer knob of the active section is filled, and rewriting
//     one that was non-zero to an explicit 0 is honored as 0 and never
//     lands on the original's key.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range []string{
		`{"kind":"model","seed":5,"model":{"b":20,"k":3,"s":8,"runs":60}}`,
		`{"v":1,"kind":"model","seed":9,"model":{"b":200,"k":7,"s":40,"pInit":0.5,"alpha":0.1,"gamma":0.1,"pr":0.9,"pn":0.8,"runs":200}}`,
		`{"kind":"model","model":{"pInit":0,"pn":0}}`,
		`{"kind":"efficiency","efficiency":{"k":3}}`,
		`{"kind":"efficiency","efficiency":{"k":3,"pr":0}}`,
		`{"kind":"sim","seed":7,"sim":{"pieces":50,"horizon":100,"seeds":0}}`,
		`{"kind":"sim","sim":{"lambda":0,"initialPeers":0,"seeds":0,"optimisticProb":0,"seedUpload":0}}`,
		`{"kind":"stability","seed":1,"sim":{"pieces":30,"initialPeers":20,"lambda":1,"horizon":80}}`,
		`{"kind":"fluid"}`,
		`{"kind":"fluid","fluid":{"theta":0}}`,
		`{"kind":"fluid","fluid":{"lambda":0}}`,
		`{"kind":"fluid","fluid":{"lambda":-0.0}}`,
		`{"kind":"fluid","fluid":{"x0":0,"y0":0}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","seedFraction":0}}`,
		`{"kind":"fluid","fluid":{"model":"chunk","k":16,"s":4,"horizon":100,"grid":21}}`,
		`{"fluid":{"grid":50,"horizon":100,"mu":0.4,"lambda":1.5,"theta":0},"kind":"fluid"}`,
		`{"kind":"fluid","fluid":{"horizon":20000,"rtol":1e-12,"atol":1e-15,"lambda":5,"mu":0.9,"gamma":0.1}}`,
		`{"kind":"fluid","fluid":{"gamma":0}}`,
		`{"kind":"fluid","fluid":{"k":40}}`,
		`{"kind":"fluid","sim":{}}`,
		`{"kind":"model","model":{"b":-5}}`,
		`{"kind":"model","bogus":1}`,
		`{"v":2,"kind":"model"}`,
		`{"kind":"model"} trailing`,
		`{`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		canonical, key := req.Canonical(), req.Key()
		if sum := sha256.Sum256(canonical); key != hex.EncodeToString(sum[:]) {
			t.Fatalf("Key() = %s is not hex(sha256(Canonical())) of %s", key, canonical)
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("canonical request does not marshal: %v", err)
		}
		again, err := DecodeRequest(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("canonical request does not re-decode: %v (body %s)", err, b)
		}
		if !bytes.Equal(again.Canonical(), canonical) || again.Key() != key {
			t.Fatalf("canonicalization not idempotent:\n%s\n%s\n(body %s)", canonical, again.Canonical(), b)
		}

		section := req.Kind
		if section == KindStability {
			section = KindSim
		}
		var top map[string]json.RawMessage
		var knobs map[string]any
		if err := json.Unmarshal(b, &top); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(top[section], &knobs); err != nil {
			t.Fatalf("canonical request has no %q section: %v (body %s)", section, err, b)
		}
		for _, knob := range pointerKnobs[section] {
			was, filled := knobs[knob].(float64)
			if !filled {
				if knob == "seedFraction" && req.Fluid.Model != FluidChunk {
					continue // chunk-only, and required absent otherwise
				}
				t.Fatalf("canonical %s request leaves %q unset (body %s)", section, knob, b)
			}
			knobs[knob] = 0
			top[section], _ = json.Marshal(knobs)
			knobs[knob] = was
			zb, _ := json.Marshal(top)
			zeroed, err := DecodeRequest(bytes.NewReader(zb))
			if err != nil {
				continue // 0 is outside this knob's domain here
			}
			var ztop map[string]json.RawMessage
			var zk map[string]any
			zj, _ := json.Marshal(zeroed)
			_ = json.Unmarshal(zj, &ztop)
			_ = json.Unmarshal(ztop[section], &zk)
			if got, ok := zk[knob].(float64); !ok || got != 0 {
				t.Fatalf("explicit %s.%s = 0 was rewritten to %v (body %s)", section, knob, zk[knob], zb)
			}
			if was != 0 && zeroed.Key() == key {
				t.Fatalf("%s.%s = 0 aliases %s.%s = %v under key %s", section, knob, section, knob, was, key)
			}
		}
	})
}
