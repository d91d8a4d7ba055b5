package dbn

import (
	"fmt"

	"repro/internal/bayes"
	"repro/internal/keypoint"
	"repro/internal/pose"
)

// Scoring. Every network New builds is naive-Bayes shaped: the observed
// prev_pose and stage nodes are the parents of the binary pose node, and
// its children are the part, area and ring nodes. The pose posterior
// therefore needs no general inference — it is a product of CPT entries
// for each pose state, normalised over the two states — so score reads
// those entries straight from Network.Prob, with nothing compiled at
// Train or Load and nothing to invalidate after a later Observe.
//
// score multiplies the entries in exactly the order
// bayes.Network.PosteriorVE multiplies its reduced factors, so its
// posteriors are bit-identical (==) to VE's, which stays the oracle the
// tests check it against. Floating-point multiplication is not
// associative, so the order is part of the contract. For pose state s:
//
//   - prev and stage observed (Session.Classify): (P(prev)·P(stage))·
//     P(s|prev,stage), then each observed child in node order (parts,
//     areas, rings), then Σ_v P(v|s) for each child of a disabled
//     evidence channel, in ascending node index.
//   - prev and stage hidden (the Viterbi emission): the observed
//     children, then the disabled-channel sums, then the prior marginal
//     π(s) = Σ_stage P(stage)·(Σ_prev P(prev)·P(s|prev,stage)).
//
// The posterior is d[1]/(d[0]+d[1]), or 0.5 when both are 0 (VE's
// uniform answer to zero-probability evidence). Every product is wrapped
// in float64(...): VE stores each one in a factor before using it, and
// the conversion forces the same rounding here, so no architecture may
// fuse a product and a following sum into one FMA.

// checkEvidence rejects a part or ring value outside its node's states,
// the range check VE's evidence validation made. Like VE, it checks only
// the values fed as evidence.
func (c *Classifier) checkEvidence(enc *keypoint.Encoding) error {
	if c.cfg.UsePartEvidence {
		for i, v := range enc.Area {
			if v < 0 || v > c.cfg.Partitions {
				return fmt.Errorf("dbn: %v area %d outside [0,%d]: %w", keypoint.Part(i+1), v, c.cfg.Partitions, bayes.ErrBadState) //slj:alloc-ok cold error path, the frame is rejected
			}
		}
	}
	if c.cfg.Rings > 0 {
		for i, v := range enc.Ring {
			if v < 0 || v > c.cfg.Rings {
				return fmt.Errorf("dbn: %v ring %d outside [0,%d]: %w", keypoint.Part(i+1), v, c.cfg.Rings, bayes.ErrBadState) //slj:alloc-ok cold error path, the frame is rejected
			}
		}
	}
	return nil
}

// score returns network n's P(pose present | evidence) for a frame whose
// evidence passed checkEvidence. prev and stage are the observed parent
// states (stage 0-based); prev < 0 hides both, as the Viterbi emission
// does.
func (c *Classifier) score(n *bayes.Network, prev, stage int, enc *keypoint.Encoding) float64 {
	var d [2]float64
	for s := range d {
		p := 1.0
		if prev >= 0 {
			p = float64(float64(n.Prob(nodePrev, 0, prev)*n.Prob(nodeStage, 0, stage)) * n.Prob(nodePose, prev*pose.NumStages+stage, s))
		}
		p = c.children(n, s, enc, p)
		if prev < 0 {
			p = float64(p * priorMarginal(n, s))
		}
		d[s] = p
	}
	total := d[0] + d[1]
	if total == 0 {
		return 0.5
	}
	return d[1] / total
}

// children multiplies p by pose state s's child factors: the observed
// children in node order, then the state sum of each child of a
// disabled channel in ascending node index.
func (c *Classifier) children(n *bayes.Network, s int, enc *keypoint.Encoding, p float64) float64 {
	area0 := c.nodeArea0()
	if c.cfg.UsePartEvidence {
		for i, v := range enc.Area {
			p = float64(p * n.Prob(nodePart0+i, s, v))
		}
	}
	if c.cfg.UseAreaEvidence {
		for j := 0; j < c.cfg.Partitions; j++ {
			p = float64(p * n.Prob(area0+j, s, occupied(enc, j+1)))
		}
	}
	if c.cfg.Rings > 0 {
		ring0 := c.nodeRing0()
		for i, v := range enc.Ring {
			p = float64(p * n.Prob(ring0+i, s, v))
		}
	}
	if !c.cfg.UsePartEvidence {
		for i := 0; i < keypoint.NumParts; i++ {
			p = float64(p * stateSum(n, nodePart0+i, s, c.cfg.Partitions+1))
		}
	}
	if !c.cfg.UseAreaEvidence {
		for j := 0; j < c.cfg.Partitions; j++ {
			p = float64(p * stateSum(n, area0+j, s, 2))
		}
	}
	return p
}

// occupied is the value of the area node for area (1-based): 1 when
// some part lies in it. It is Encoding.OccupiedAreas without the
// allocation.
func occupied(enc *keypoint.Encoding, area int) int {
	for _, a := range enc.Area {
		if a == area {
			return 1
		}
	}
	return 0
}

// stateSum is Σ_v P(node = v | pose state s) over the node's states: a
// hidden child marginalised out, summed in state order as VE does.
func stateSum(n *bayes.Network, node, s, states int) float64 {
	sum := 0.0
	for v := 0; v < states; v++ {
		sum += n.Prob(node, s, v)
	}
	return sum
}

// priorMarginal is π(s) = Σ_stage P(stage)·(Σ_prev P(prev)·P(s|prev,stage)):
// VE eliminates prev (the lower node index) before stage.
func priorMarginal(n *bayes.Network, s int) float64 {
	pi := 0.0
	for st := 0; st < pose.NumStages; st++ {
		inner := 0.0
		for q := 0; q < prevStates; q++ {
			inner += float64(n.Prob(nodePrev, 0, q) * n.Prob(nodePose, q*pose.NumStages+st, s))
		}
		pi += float64(n.Prob(nodeStage, 0, st) * inner)
	}
	return pi
}

// sortScores orders scores by descending posterior, ties keeping pose
// order: a stable insertion sort, which unlike sort.SliceStable does not
// allocate.
func sortScores(scores *[pose.NumPoses]Score) {
	for i := 1; i < len(scores); i++ {
		for j := i; j > 0 && scores[j].Prob > scores[j-1].Prob; j-- {
			scores[j], scores[j-1] = scores[j-1], scores[j]
		}
	}
}
