package gateway

import (
	"fmt"
	"testing"
)

// TestRingSequenceCoversAllNodes: every key's failover sequence visits
// each mounted node exactly once, primary first.
func TestRingSequenceCoversAllNodes(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	r := buildRing(nodes)
	for i := 0; i < 50; i++ {
		key := hashBytes(fnvOffset64, []byte(fmt.Sprintf("key-%d", i)))
		seq := r.sequence(key, nil)
		if len(seq) != len(nodes) {
			t.Fatalf("key %d: sequence = %v", i, seq)
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] || !containsNode(nodes, n) {
				t.Fatalf("key %d: bad sequence %v", i, seq)
			}
			seen[n] = true
		}
	}
}

// TestRingDeterministic: two rings built from the same nodes route every
// key identically — routing must not depend on construction order.
func TestRingDeterministic(t *testing.T) {
	r1 := buildRing([]string{"http://a", "http://b", "http://c"})
	r2 := buildRing([]string{"http://c", "http://a", "http://b"})
	for i := 0; i < 100; i++ {
		key := hashBytes(fnvOffset64, []byte(fmt.Sprintf("key-%d", i)))
		if got, want := r1.sequence(key, nil)[0], r2.sequence(key, nil)[0]; got != want {
			t.Fatalf("key %d: %q vs %q", i, got, want)
		}
	}
}

// TestRingStabilityOnNodeLoss pins the consistent-hashing property the
// response caches depend on: removing one node must remap only the keys
// that routed to it; every other key keeps its primary.
func TestRingStabilityOnNodeLoss(t *testing.T) {
	full := buildRing([]string{"http://a", "http://b", "http://c"})
	reduced := buildRing([]string{"http://a", "http://c"})
	moved := 0
	for i := 0; i < 500; i++ {
		key := hashBytes(fnvOffset64, []byte(fmt.Sprintf("key-%d", i)))
		before := full.sequence(key, nil)[0]
		after := reduced.sequence(key, nil)[0]
		if before == "http://b" {
			moved++
			continue // its keys must land somewhere else
		}
		if before != after {
			t.Fatalf("key %d moved %q -> %q though its node survived", i, before, after)
		}
	}
	if moved == 0 || moved == 500 {
		t.Fatalf("implausible key distribution: %d/500 on the lost node", moved)
	}
}

// TestRingFailoverSkipsLostNode: the failover sequence after the primary
// must also be stable, so retries of an idempotent op land on the same
// secondary a fresh reduced ring would pick.
func TestRingFailoverSkipsLostNode(t *testing.T) {
	full := buildRing([]string{"http://a", "http://b", "http://c"})
	reduced := buildRing([]string{"http://a", "http://c"})
	for i := 0; i < 200; i++ {
		key := hashBytes(fnvOffset64, []byte(fmt.Sprintf("key-%d", i)))
		seq := full.sequence(key, nil)
		// Drop the lost node from the full sequence: the first survivor
		// must be the reduced ring's primary.
		var firstSurvivor string
		for _, n := range seq {
			if n != "http://b" {
				firstSurvivor = n
				break
			}
		}
		if want := reduced.sequence(key, nil)[0]; firstSurvivor != want {
			t.Fatalf("key %d: failover picks %q, reduced ring says %q", i, firstSurvivor, want)
		}
	}
}

// TestRingEmpty: an empty ring yields an empty sequence, not a panic.
func TestRingEmpty(t *testing.T) {
	if seq := buildRing(nil).sequence(42, nil); len(seq) != 0 {
		t.Fatalf("sequence = %v", seq)
	}
}
