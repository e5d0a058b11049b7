package epnet

import "testing"

func TestPresetsAllValidate(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 {
		t.Fatal("no presets registered")
	}
	for _, name := range names {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q does not validate: %v", name, err)
		}
		if PresetDoc(name) == "" {
			t.Errorf("preset %q has no doc line", name)
		}
	}
	if _, err := Preset("no-such-preset"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestPresetPaperShape(t *testing.T) {
	cfg, err := Preset("paper-fbfly")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 15 || cfg.N != 3 || cfg.C != 15 {
		t.Errorf("paper preset shape k=%d n=%d c=%d, want 15-ary 3-flat c=15", cfg.K, cfg.N, cfg.C)
	}
}
