package query

import (
	"context"
	"testing"

	"m3/internal/core"
	"m3/internal/unit"
)

// TestSetConfigRoundTripKeepsCache: switching the configuration away and
// back again serves the original estimate from the shared cache instead of
// recomputing (SetConfig no longer discards still-useful estimates).
func TestSetConfigRoundTripKeepsCache(t *testing.T) {
	s, _ := testSession(t)
	orig := s.Config()

	a, err := s.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	alt := orig
	alt.InitWindow = 25 * unit.KB
	if err := s.SetConfig(alt); err != nil {
		t.Fatal(err)
	}
	b, err := s.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different configs shared an estimate")
	}
	if err := s.SetConfig(orig); err != nil {
		t.Fatal(err)
	}
	c, err := s.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("estimate recomputed after config round-trip")
	}
	st := s.Cache.Stats()
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one per distinct config)", st.Misses)
	}
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1 (the round-trip)", st.Hits)
	}
}

// TestSetConfigSkipsFlowSim: a session's second configuration re-runs only
// the model — every sampled path's flowSim products come from the
// session's feature cache.
func TestSetConfigSkipsFlowSim(t *testing.T) {
	s, _ := testSession(t)
	a, err := s.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := s.features.Stats()
	if first.Misses != int64(a.DistinctPaths) {
		t.Fatalf("first estimate ran flowSim %d times for %d paths", first.Misses, a.DistinctPaths)
	}
	alt := s.Config()
	alt.InitWindow = 25 * unit.KB
	if err := s.SetConfig(alt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.features.Stats(); st.Misses != first.Misses || st.Hits != first.Hits+int64(a.DistinctPaths) {
		t.Errorf("second config: features %+v after %+v, want only hits", st, first)
	}
}

// TestSessionsShareCache: two sessions over the same workload pointed at one
// cache share estimates.
func TestSessionsShareCache(t *testing.T) {
	s1, _ := testSession(t)
	s2, err := NewSession(s1.T, s1.Flows, s1.Net, s1.Config())
	if err != nil {
		t.Fatal(err)
	}
	s2.NumPaths = s1.NumPaths
	shared := core.NewEstimateCache(8)
	s1.Cache = shared
	s2.Cache = shared

	a, err := s1.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Estimate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("sessions with a shared cache recomputed the same estimate")
	}
}
