// Package cluster implements the membership and placement rules of a
// multi-daemon simd deployment. Placement is rendezvous (highest-random-
// weight) hashing over the run fingerprint: every member computes, for each
// peer, a weight derived from hash(peer, fingerprint) and the peer with the
// highest weight owns the run. All members given the same peer list agree on
// every owner without any coordination, and removing a peer moves only the
// runs that peer owned — every other placement is unchanged (the property
// that makes failover cheap).
//
// The package is deliberately dependency-free (stdlib only): the server
// (internal/server) uses it to decide whether to execute or forward a
// submission. Clients place nothing; the client pool (internal/server/client)
// only orders the member URLs to pick a batch's entry point.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strings"
)

// Normalize canonicalizes a peer base URL so that the same daemon spelled
// slightly differently ("127.0.0.1:8404/", "http://127.0.0.1:8404") hashes
// identically everywhere. Placement compares normalized strings exactly, so
// every member must be given the same spelling of every peer (the host is
// not resolved: "localhost" and "127.0.0.1" are distinct members).
func Normalize(peer string) string {
	p := strings.TrimSpace(peer)
	p = strings.TrimRight(p, "/")
	if p == "" {
		return ""
	}
	if !strings.Contains(p, "://") {
		p = "http://" + p
	}
	return p
}

// ParsePeers splits a comma-separated peer list (the -seeds flag syntax)
// into normalized, deduplicated base URLs, preserving first-seen order.
func ParsePeers(list string) []string {
	var peers []string
	seen := map[string]bool{}
	for _, part := range strings.Split(list, ",") {
		p := Normalize(part)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		peers = append(peers, p)
	}
	return peers
}

// weight is the rendezvous score of peer for fp: the first 8 bytes of
// sha256(peer || 0x00 || fp). The zero byte delimits the variable-length
// peer name from the fixed-length fingerprint, so no two (peer, fp) pairs
// collide by concatenation.
func weight(fp [32]byte, peer string) uint64 {
	h := sha256.New()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write(fp[:])
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

// Ranked orders peers by descending rendezvous weight for fp: Ranked(...)[0]
// is the owner, and the remainder is the failover order. Ties (which require
// a 64-bit hash collision) break on the peer name so every member still
// agrees. The input slice is not modified; peers are hashed as given, so
// normalize them first.
func Ranked(fp [32]byte, peers []string) []string {
	ranked := append([]string(nil), peers...)
	weights := make(map[string]uint64, len(peers))
	for _, p := range ranked {
		weights[p] = weight(fp, p)
	}
	sort.Slice(ranked, func(i, j int) bool {
		wi, wj := weights[ranked[i]], weights[ranked[j]]
		if wi != wj {
			return wi > wj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}

// RankedKey ranks peers for an arbitrary string key (used for choices that
// are not a run's placement, like the member a client's batch enters at) by
// hashing the key first.
func RankedKey(key string, peers []string) []string {
	return Ranked(sha256.Sum256([]byte(key)), peers)
}
