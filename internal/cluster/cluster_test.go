package cluster

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

func fpOf(i int) [32]byte { return sha256.Sum256([]byte(fmt.Sprintf("run-%d", i))) }

var threePeers = []string{
	"http://127.0.0.1:8404",
	"http://127.0.0.1:8405",
	"http://127.0.0.1:8406",
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"http://127.0.0.1:8404":   "http://127.0.0.1:8404",
		"http://127.0.0.1:8404/":  "http://127.0.0.1:8404",
		"127.0.0.1:8404":          "http://127.0.0.1:8404",
		"  127.0.0.1:8404/ ":      "http://127.0.0.1:8404",
		"https://simd.example:80": "https://simd.example:80",
		"":                        "",
		"   ":                     "",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
	got := ParsePeers(" 127.0.0.1:1, http://127.0.0.1:1/ ,127.0.0.1:2,,")
	want := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParsePeers = %v, want %v", got, want)
	}
}

// TestRankedDeterministicAndOrderInsensitive: every member must compute the
// same owner regardless of the order its member list arrives in.
func TestRankedDeterministicAndOrderInsensitive(t *testing.T) {
	shuffled := []string{threePeers[2], threePeers[0], threePeers[1]}
	for i := 0; i < 200; i++ {
		fp := fpOf(i)
		a := Ranked(fp, threePeers)
		b := Ranked(fp, shuffled)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("fp %d: ranking depends on input order: %v vs %v", i, a, b)
		}
		if len(a) != 3 {
			t.Fatalf("fp %d: ranked %d peers, want 3", i, len(a))
		}
	}
	// Ranked must not reorder the caller's slice.
	orig := append([]string(nil), shuffled...)
	Ranked(fpOf(0), shuffled)
	if !reflect.DeepEqual(shuffled, orig) {
		t.Error("Ranked modified its input slice")
	}
}

// TestRankedMinimalDisruption: removing one peer moves only the runs that
// peer owned; every other run keeps its owner. This is the rendezvous-
// hashing property the failover design relies on.
func TestRankedMinimalDisruption(t *testing.T) {
	const n = 2000
	removed := threePeers[1]
	survivors := []string{threePeers[0], threePeers[2]}
	moved := 0
	for i := 0; i < n; i++ {
		fp := fpOf(i)
		before := Ranked(fp, threePeers)
		after := Ranked(fp, survivors)
		if before[0] == removed {
			moved++
			// The new owner must be the old second choice.
			if after[0] != before[1] {
				t.Fatalf("fp %d: owner after removal = %s, want old runner-up %s", i, after[0], before[1])
			}
		} else if after[0] != before[0] {
			t.Fatalf("fp %d: owner changed from %s to %s although %s was not the owner", i, before[0], after[0], removed)
		}
	}
	if moved == 0 || moved == n {
		t.Fatalf("removed peer owned %d/%d runs, want a proper subset", moved, n)
	}
}

// TestRankedBalance: ownership is roughly uniform across members.
func TestRankedBalance(t *testing.T) {
	const n = 3000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[Ranked(fpOf(i), threePeers)[0]]++
	}
	for _, p := range threePeers {
		if c := counts[p]; c < n/6 || c > n/2 {
			t.Errorf("peer %s owns %d/%d runs, want roughly %d", p, c, n, n/3)
		}
	}
}

func TestRankedKeyDeterministic(t *testing.T) {
	a := RankedKey("figure/3", threePeers)
	b := RankedKey("figure/3", threePeers)
	if !reflect.DeepEqual(a, b) {
		t.Error("RankedKey not deterministic")
	}
	if len(a) != 3 {
		t.Errorf("ranked %d peers, want 3", len(a))
	}
}
