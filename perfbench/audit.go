package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"vmplants/internal/core"
)

// auditOutcomes checks what every session was answered: a success
// carries the requested MemoryMB and names a plant, VMIDs are never
// handed out twice, and every destroy of a created workspace
// succeeded unless the session is still meant to be live.
func auditOutcomes(sessions []session, out []outcome, wantDestroyed bool) []string {
	var bad []string
	seen := make(map[core.VMID]int)
	for i, o := range out {
		if !o.OK {
			continue
		}
		if o.MemMB != sessions[i].MemMB {
			bad = append(bad, fmt.Sprintf("session %d: MemoryMB %d, requested %d", o.Seq, o.MemMB, sessions[i].MemMB))
		}
		if o.Plant == "" {
			bad = append(bad, fmt.Sprintf("session %d: answer names no plant", o.Seq))
		}
		if prev, dup := seen[o.VMID]; dup {
			bad = append(bad, fmt.Sprintf("sessions %d and %d: both answered %s", prev, o.Seq, o.VMID))
		}
		seen[o.VMID] = o.Seq
		if wantDestroyed && !o.Destroyed {
			bad = append(bad, fmt.Sprintf("session %d: %s not destroyed (%s)", o.Seq, o.VMID, o.Err))
		}
	}
	return bad
}

// auditLiveSet checks that the plants host exactly the live set: no
// workspace the clients still hold is lost, and nothing they destroyed
// (or never asked for) survives.
func auditLiveSet(live, hosted []core.VMID) []string {
	want := make(map[core.VMID]bool, len(live))
	for _, id := range live {
		want[id] = true
	}
	var bad []string
	got := make(map[core.VMID]bool, len(hosted))
	for _, id := range hosted {
		if got[id] {
			bad = append(bad, fmt.Sprintf("%s hosted twice", id))
		}
		got[id] = true
		if !want[id] {
			bad = append(bad, fmt.Sprintf("%s hosted but not live", id))
		}
	}
	for _, id := range live {
		if !got[id] {
			bad = append(bad, fmt.Sprintf("%s live but hosted nowhere", id))
		}
	}
	sort.Strings(bad)
	return bad
}

// auditSim runs every check on a finished simulated run.
func auditSim(sd *simDeployment, sessions []session, out []outcome) error {
	bad := auditOutcomes(sessions, out, true)
	var live, hosted []core.VMID
	for i, o := range out {
		if o.OK && !o.Destroyed {
			live = append(live, remoteID(sd.cells[sessions[i].Cell], o.VMID))
		}
	}
	for _, c := range sd.cells {
		for _, pl := range c.d.Plants {
			hosted = append(hosted, pl.VMIDs()...)
		}
		if c.jnl != nil {
			if _, nbad := c.jnl.Verify(); nbad != 0 {
				bad = append(bad, fmt.Sprintf("%s journal: %d bad records", c.name, nbad))
			}
		}
	}
	bad = append(bad, auditLiveSet(live, hosted)...)
	return problems(bad)
}

// remoteID is the VMID a plant hosts for a creation c acked: the
// serving peer's own ID when c forwarded it.
func remoteID(c simCell, id core.VMID) core.VMID {
	if _, remote, ok := c.shop.ForwardedTo(id); ok {
		return remote
	}
	return id
}

// problems folds audit findings into one error (nil when none).
func problems(bad []string) error {
	if len(bad) == 0 {
		return nil
	}
	const show = 10
	more := ""
	if len(bad) > show {
		more = fmt.Sprintf(" (and %d more)", len(bad)-show)
		bad = bad[:show]
	}
	return errors.New("audit: " + strings.Join(bad, "; ") + more)
}

// sameOutcomes reports the first session whose rendered outcome
// differs between two runs of one schedule.
func sameOutcomes(a, b []outcome, virtualLatency bool) error {
	if len(a) != len(b) {
		return fmt.Errorf("audit: %d outcomes vs %d", len(a), len(b))
	}
	for i := range a {
		if la, lb := a[i].line(virtualLatency), b[i].line(virtualLatency); la != lb {
			return fmt.Errorf("audit: runs differ at session %d:\n  %s\n  %s", a[i].Seq, la, lb)
		}
	}
	return nil
}
