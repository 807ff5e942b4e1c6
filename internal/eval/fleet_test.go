package eval

import (
	"testing"
	"time"

	"bdrmap/internal/fleet"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestRunFleetEarlyKillFailsFast severs a remote VP's link on the hello
// frame (kill=1), so no session ever forms and the agent exhausts its
// redials. The shard must end Failed as soon as the agent exits, not
// after waiting out claimTimeout for a session that cannot arrive.
func TestRunFleetEarlyKillFailsFast(t *testing.T) {
	s := Build(topo.TinyProfile(), 1)
	start := time.Now()
	sum, err := s.RunFleet(scamper.Config{}, FleetOptions{
		VPs: map[int]FleetVP{0: {Remote: true, FaultSpecs: []string{"seed=1,kill=1"}}},
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if sh := sum.Shards[0]; sh.State != fleet.Failed || sh.Err == nil {
		t.Fatalf("shard ended %v (err %v), want failed with an error", sh.State, sh.Err)
	}
	if s.Results[0] != nil {
		t.Error("failed shard left a result")
	}
	if elapsed >= claimTimeout/2 {
		t.Errorf("early kill took %v, want well under the %v claim timeout", elapsed, claimTimeout)
	}
}
