package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"doppelganger/internal/engine"
)

// testKeys derives n realistic engine-style keys (hex SHA-256 digests).
func testKeys(n int) []engine.Key {
	keys := make([]engine.Key, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		keys[i] = engine.Key(hex.EncodeToString(sum[:]))
	}
	return keys
}

func TestRingOwnersDistinctAndDeterministic(t *testing.T) {
	r := newRing([]string{"w1", "w2", "w3"})
	for _, key := range testKeys(100) {
		owners := r.owners(key, 3)
		if len(owners) != 3 {
			t.Fatalf("owners(%s) = %v, want 3 distinct", key, owners)
		}
		seen := map[string]bool{}
		for _, id := range owners {
			if seen[id] {
				t.Fatalf("owners(%s) repeats %s: %v", key, id, owners)
			}
			seen[id] = true
		}
		again := r.owners(key, 3)
		for i := range owners {
			if owners[i] != again[i] {
				t.Fatalf("owners(%s) not deterministic: %v vs %v", key, owners, again)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := newRing([]string{"w1", "w2", "w3", "w4"})
	counts := map[string]int{}
	const n = 4000
	for _, key := range testKeys(n) {
		counts[r.owners(key, 1)[0]]++
	}
	for id, got := range counts {
		// Expect n/4 each; tolerate a generous 2x spread — the point is no
		// worker is starved or doubled, not perfect uniformity.
		if got < n/8 || got > n/2 {
			t.Errorf("worker %s owns %d of %d keys (imbalanced): %v", id, got, n, counts)
		}
	}
}

// TestRingMinimalDisruption checks the consistent-hashing property the
// cluster relies on for re-sharding: removing one worker moves only keys
// that worker owned; every other key keeps its primary owner.
func TestRingMinimalDisruption(t *testing.T) {
	full := newRing([]string{"w1", "w2", "w3"})
	reduced := newRing([]string{"w1", "w3"})
	moved, kept := 0, 0
	for _, key := range testKeys(1000) {
		before := full.owners(key, 1)[0]
		after := reduced.owners(key, 1)[0]
		if before == "w2" {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %s moved %s -> %s though its owner survived", key, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestRingFailoverOrder checks that the retry order (owner list) after a
// worker loss starts with the same successor a rebuilt ring would choose
// as primary — a retried job lands where future identical jobs will hash.
func TestRingFailoverOrder(t *testing.T) {
	full := newRing([]string{"w1", "w2", "w3"})
	for _, key := range testKeys(200) {
		owners := full.owners(key, 3)
		var survivors []string
		for _, id := range []string{"w1", "w2", "w3"} {
			if id != owners[0] {
				survivors = append(survivors, id)
			}
		}
		rebuilt := newRing(survivors)
		if got, want := rebuilt.owners(key, 1)[0], owners[1]; got != want {
			t.Fatalf("key %s: rebuilt primary %s != failover successor %s", key, got, want)
		}
	}
}

func TestKeyPoint(t *testing.T) {
	cases := []struct {
		key  engine.Key
		want uint64
	}{
		{"0000000000000000ffff", 0},
		{"ffffffffffffffff0000", ^uint64(0)},
		{"0123456789abcdefrest", 0x0123456789abcdef},
		{"0123456789ABCDEF", 0x0123456789abcdef},
		{"not-hex!", 0},
	}
	for _, c := range cases {
		if got := keyPoint(c.key); got != c.want {
			t.Errorf("keyPoint(%q) = %#x, want %#x", c.key, got, c.want)
		}
	}
}

func TestEmptyRing(t *testing.T) {
	r := newRing(nil)
	if owners := r.owners("abcd", 3); owners != nil {
		t.Errorf("empty ring returned owners %v", owners)
	}
}
