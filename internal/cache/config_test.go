package cache

import (
	"fmt"
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	ok := Config{Size: 1024, LineSize: 16}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"size not pow2", Config{Size: 1000, LineSize: 16}},
		{"size zero", Config{Size: 0, LineSize: 16}},
		{"line not pow2", Config{Size: 1024, LineSize: 24}},
		{"line > size", Config{Size: 16, LineSize: 32}},
		{"negative assoc", Config{Size: 1024, LineSize: 16, Assoc: -1}},
		{"assoc not pow2", Config{Size: 1024, LineSize: 16, Assoc: 3}},
		{"assoc > lines", Config{Size: 64, LineSize: 16, Assoc: 8}},
		{"noalloc without write-through", Config{Size: 1024, LineSize: 16, NoWriteAllocate: true}},
		{"subblock not pow2", Config{Size: 1024, LineSize: 16, SubBlock: 3}},
		{"subblock > line", Config{Size: 1024, LineSize: 16, SubBlock: 32}},
		{"too many subblocks", Config{Size: 65536, LineSize: 16384, SubBlock: 16}},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cases := []struct {
		cfg          Config
		lines, assoc int
		sets         int
	}{
		{Config{Size: 1024, LineSize: 16}, 64, 64, 1},           // fully assoc
		{Config{Size: 1024, LineSize: 16, Assoc: 1}, 64, 1, 64}, // direct mapped
		{Config{Size: 1024, LineSize: 16, Assoc: 4}, 64, 4, 16},
		{Config{Size: 64, LineSize: 16, Assoc: 4}, 4, 4, 1},
		{Config{Size: 32, LineSize: 32}, 1, 1, 1},
	}
	for _, c := range cases {
		if got := c.cfg.Lines(); got != c.lines {
			t.Errorf("%v Lines = %d, want %d", c.cfg, got, c.lines)
		}
		if got := c.cfg.EffectiveAssoc(); got != c.assoc {
			t.Errorf("%v EffectiveAssoc = %d, want %d", c.cfg, got, c.assoc)
		}
		if got := c.cfg.Sets(); got != c.sets {
			t.Errorf("%v Sets = %d, want %d", c.cfg, got, c.sets)
		}
	}
}

func TestEffectiveSubBlock(t *testing.T) {
	if got := (Config{Size: 256, LineSize: 16}).EffectiveSubBlock(); got != 16 {
		t.Errorf("unsectored = %d, want 16", got)
	}
	if got := (Config{Size: 256, LineSize: 16, SubBlock: 4}).EffectiveSubBlock(); got != 4 {
		t.Errorf("sectored = %d, want 4", got)
	}
}

func TestConfigString(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Size: 16384, LineSize: 16}, "16384B/16B fully-assoc LRU copy-back demand"},
		{Config{Size: 1024, LineSize: 16, Assoc: 1, Repl: FIFO, Write: WriteThrough, Fetch: PrefetchAlways},
			"1024B/16B direct-mapped FIFO write-through prefetch-always"},
		{Config{Size: 1024, LineSize: 16, Assoc: 4}, "1024B/16B 4-way LRU copy-back demand"},
		{Config{}, "0B/0B LRU copy-back demand"},
		{Config{Size: 4096, Repl: ARC}, "4096B/0B ARC copy-back demand"},
	} {
		if got := tc.cfg.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.cfg, got, tc.want)
		}
	}
	unified := SystemConfig{Unified: Config{Size: 16384, LineSize: 16}}
	if got := fmt.Sprint(unified); strings.Contains(got, "PANIC") {
		t.Errorf("unified SystemConfig prints %q", got)
	}
}

func TestPolicyStrings(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Error("Replacement.String mismatch")
	}
	if !strings.Contains(Replacement(9).String(), "9") {
		t.Error("unknown Replacement should include the value")
	}
	if CopyBack.String() != "copy-back" || WriteThrough.String() != "write-through" {
		t.Error("WritePolicy.String mismatch")
	}
	if !strings.Contains(WritePolicy(9).String(), "9") {
		t.Error("unknown WritePolicy should include the value")
	}
	if DemandFetch.String() != "demand" || PrefetchAlways.String() != "prefetch-always" {
		t.Error("FetchPolicy.String mismatch")
	}
	if !strings.Contains(FetchPolicy(9).String(), "9") {
		t.Error("unknown FetchPolicy should include the value")
	}
}
