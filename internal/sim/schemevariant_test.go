package sim

import (
	"strings"
	"testing"

	"eccparity/internal/ecc"
)

// TestSchemeKeysCoverRegistry: every scheme the ecc registry serves is an
// evaluated configuration, plus the engine-only parity overlays.
func TestSchemeKeysCoverRegistry(t *testing.T) {
	keys := SchemeKeys()
	have := map[string]bool{}
	for _, k := range keys {
		have[k] = true
		if !KnownScheme(k) {
			t.Errorf("SchemeKeys lists %q but KnownScheme denies it", k)
		}
	}
	for _, name := range ecc.Names() {
		if !have[name] {
			t.Errorf("ecc registry scheme %q has no evaluated configuration", name)
		}
	}
	for _, k := range []string{"lotecc5+parity", "raim+parity"} {
		if !have[k] {
			t.Errorf("engine-only overlay %q missing", k)
		}
	}
	if KnownScheme("nope") {
		t.Error("KnownScheme accepted an unknown key")
	}
}

// TestOnDieSchemesRaiseEPI: the in-array check bits cost dynamic energy —
// an on-die configuration's memConfig chips must burn more per activate
// than the bare chips of a rank-only scheme of the same geometry.
func TestOnDieSchemesRaiseEPI(t *testing.T) {
	for _, key := range []string{"ondie-sec", "ondie+chipkill", "ondie+raim18"} {
		sc := SchemeByKey(key)
		if sc.OnDieOverhead <= 0 {
			t.Errorf("%s: OnDieOverhead = %v, want > 0", key, sc.OnDieOverhead)
		}
		mc := memConfig(sc, QuadEq)
		bare := buildMemConfig(SchemeConfig{Base: sc.Base, Traffic: sc.Traffic}, QuadEq)
		if !(mc.Chips[0].ActivateEnergy(mc.Timing) > bare.Chips[0].ActivateEnergy(bare.Timing)) {
			t.Errorf("%s: on-die overhead did not raise activate energy", key)
		}
	}
	if sc := SchemeByKey("chipkill36"); sc.OnDieOverhead != 0 {
		t.Errorf("rank-only scheme carries on-die overhead %v", sc.OnDieOverhead)
	}
}

// TestSchemeVariant: defaults resolve to the shared entry; non-default
// options intern one distinct configuration per (key, options) pair.
func TestSchemeVariant(t *testing.T) {
	def, err := SchemeVariant("ondie+chipkill", "")
	if err != nil {
		t.Fatal(err)
	}
	if def.Key != "ondie+chipkill" || def.Base != SchemeByKey("ondie+chipkill").Base {
		t.Error("default variant must be the shared registry entry")
	}
	opts := `{"passthrough":true}`
	v1, err := SchemeVariant("ondie+chipkill", opts)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := SchemeVariant("ondie+chipkill", opts)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Base != v2.Base {
		t.Error("repeated variant resolution must share the interned instance")
	}
	if v1.Key == def.Key || !strings.Contains(v1.Key, "ondie+chipkill") {
		t.Errorf("variant key %q must be distinct from the default and carry the scheme", v1.Key)
	}
	if v1.OnDieOverhead != def.OnDieOverhead {
		t.Error("passthrough still stores check bits: energy overhead must match the default")
	}
	od, ok := v1.Base.(*ecc.OnDie)
	if !ok || !od.Passthrough() {
		t.Fatalf("variant base = %T, want passthrough *ecc.OnDie", v1.Base)
	}
	if _, err := SchemeVariant("nope", ""); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := SchemeVariant("chipkill36", opts); err == nil {
		t.Error("options on an optionless scheme accepted")
	}
	if _, err := SchemeVariant("ondie-sec", `{"bogus":1}`); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestNewSchemesRun: each newly registered configuration drives a short
// full-system run end to end.
func TestNewSchemesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system runs")
	}
	for _, key := range []string{"doublechipkill", "lotecc5rs", "raim18", "ondie-sec", "ondie+chipkill", "ondie+raim18"} {
		r := mustRun(t, fastCfg(key, QuadEq, "lbm"))
		if r.Instructions == 0 || r.EPI <= 0 {
			t.Errorf("%s: degenerate run: %+v", key, r)
		}
	}
}
