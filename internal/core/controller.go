package core

import (
	"fmt"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/switches/switchdef"
	"repro/internal/units"
)

// shadowRuleWindow is how many shadow rules the controller keeps live
// before it starts revoking the oldest: the first window of operations is
// pure install, after which every install is paired with a revoke —
// steady-state table churn at a constant table size.
const shadowRuleWindow = 32

// dropActions is every shadow rule's action list, shared read-only: no
// switch writes a rule's Actions (OvS copies them into its own).
var dropActions = []switchdef.RuleAction{{Kind: switchdef.RuleDrop}}

// shadowRule is the i-th rule of the controller's deterministic schedule:
// a destination-MAC-exact drop on a locally administered address outside
// the PortMAC space (02:00:00:00:xx:xx), so it never matches generated
// traffic. The churn is therefore control-plane-pure — delivery is
// untouched, but every install/revoke invalidates the data plane's
// classification state (OvS EMC/megaflow generations, t4p4s table
// versions) while VPP's ACL arc and FastClick's drop set check every
// frame against the live rules, and that cost lands on the SUT cores.
func shadowRule(i uint64) switchdef.Rule {
	return switchdef.Rule{
		Match: switchdef.Match{
			Fields: switchdef.FEthDst,
			EthDst: pkt.MAC{0x0e, 0xc4, byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)},
		},
		Actions: dropActions,
	}
}

// ruleController is the control-plane actor: a sim-time task that programs
// rules into the SUT switch mid-run at a fixed operation rate, the way an
// SDN controller (or OVSDB manager) reshapes a deployed switch's tables
// while traffic flows. Its schedule is a pure function of the operation
// index, so runs are deterministic across seeds, engines, and core counts.
type ruleController struct {
	sw       switchdef.Programmer
	sched    *sim.Scheduler
	task     *sim.Task
	interval units.Time

	seq uint64 // next shadow-rule ordinal
	// live[head], live[head+1], … (mod the window) are the n installed
	// shadow rules, oldest first.
	live    [shadowRuleWindow]switchdef.Rule
	head, n int

	// Installs and Revokes count completed operations; Err records the
	// first failed one (the run reports it).
	Installs, Revokes int64
	Err               error
}

// newRuleController registers a controller stepping at rate ops/second.
func newRuleController(s *sim.Scheduler, name string, sw switchdef.Programmer, rate float64) *ruleController {
	c := &ruleController{
		sw:       sw,
		sched:    s,
		interval: units.Time(float64(units.Second) / rate),
	}
	if c.interval < 1 {
		c.interval = 1
	}
	c.task = s.Register(name, c)
	return c
}

// Start schedules the first operation one period after at.
func (c *ruleController) Start(at units.Time) {
	c.sched.WakeAt(c.task, at+c.interval)
}

// Step implements sim.Actor: one rule operation per period.
func (c *ruleController) Step(now units.Time) (units.Time, bool) {
	if c.n < shadowRuleWindow {
		r := shadowRule(c.seq)
		c.seq++
		if err := c.sw.Install(r); err != nil {
			c.Err = fmt.Errorf("core: controller install: %w", err)
			return 0, false
		}
		c.live[(c.head+c.n)%shadowRuleWindow] = r
		c.n++
		c.Installs++
	} else {
		r := c.live[c.head]
		c.head = (c.head + 1) % shadowRuleWindow
		c.n--
		if err := c.sw.Revoke(r); err != nil {
			c.Err = fmt.Errorf("core: controller revoke: %w", err)
			return 0, false
		}
		c.Revokes++
	}
	return now + c.interval, true
}

// Updates returns the completed operation count.
func (c *ruleController) Updates() int64 { return c.Installs + c.Revokes }
