// Package thinning implements the skeletonisation stage of Section 3: the
// Zhang–Suen ("Z-S") iterative thinning algorithm the paper uses, plus the
// Guo–Hall variant as an ablation. Both peel boundary pixels layer by layer
// until only a (mostly) one-pixel-wide skeleton remains, preserving
// 8-connectivity — the "peeling approach ... fast and it can avoid the
// break-line problem" of the paper.
//
// The package also provides artefact metrics (loops, thick T-corners,
// short spurs) used by the Figure 2 experiment, since the paper's whole
// Section 3 post-processing exists to repair exactly those artefacts.
package thinning

import "repro/internal/imaging"

// Algorithm selects a thinning variant.
type Algorithm int

// Supported variants.
const (
	// ZhangSuen is the paper's Z-S algorithm (Zhang & Suen 1984).
	ZhangSuen Algorithm = iota + 1
	// GuoHall is the Guo–Hall (1989) two-subiteration variant, provided
	// as an ablation; it tends to produce fewer staircase artefacts.
	GuoHall
	// MedialAxis is the distance-transform medial-axis skeleton (see
	// medialaxis.go), the classical alternative the thinning approach
	// competes with; it fragments on noisy boundaries.
	MedialAxis
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case ZhangSuen:
		return "zhang-suen"
	case GuoHall:
		return "guo-hall"
	case MedialAxis:
		return "medial-axis"
	default:
		return "unknown-algorithm"
	}
}

// Thin skeletonises the binary image with the requested algorithm and
// returns a new image; the input is not modified. Unknown algorithms fall
// back to Zhang–Suen.
func Thin(src *imaging.Binary, alg Algorithm) *imaging.Binary {
	return ThinInto(nil, src, alg)
}

// ThinInto is Thin writing into dst, which is resized as needed (nil
// allocates a fresh image; imaging.GetBinary hands back a pooled one).
// dst must not alias src. It returns dst, so the per-frame hot path can
// recycle the skeleton buffer instead of cloning the silhouette every
// frame.
func ThinInto(dst *imaging.Binary, src *imaging.Binary, alg Algorithm) *imaging.Binary {
	dst, _ = ThinIntoCounted(dst, src, alg)
	return dst
}

// ThinIntoCounted is ThinInto additionally reporting how many full
// peel iterations the algorithm ran before the skeleton stabilised
// (one iteration = both subiterations; the final no-change sweep
// counts). Iteration counts feed the pipeline.thin_passes health
// counter — a jump in passes-per-frame flags silhouettes much thicker
// than the extractor normally emits. MedialAxis is not iterative and
// reports 1.
//
//slj:hotpath
func ThinIntoCounted(dst *imaging.Binary, src *imaging.Binary, alg Algorithm) (*imaging.Binary, int) {
	if dst == nil {
		dst = &imaging.Binary{} //slj:alloc-ok nil-dst fallback for one-shot callers; hot callers pass a recycled dst
	}
	dst.W, dst.H = src.W, src.H
	if need := src.W * src.H; cap(dst.Pix) < need {
		dst.Pix = make([]uint8, need) //slj:alloc-ok dst regrow on first use or a larger frame, amortised across frames
	} else {
		dst.Pix = dst.Pix[:need]
	}
	passes := 1
	switch alg {
	case GuoHall:
		copy(dst.Pix, src.Pix)
		passes = thinGuoHall(dst)
	case MedialAxis:
		m := medialAxis(src)
		copy(dst.Pix, m.Pix)
	default:
		copy(dst.Pix, src.Pix)
		passes = thinZhangSuen(dst)
	}
	return dst, passes
}

// neighborhood gathers the classical P2..P9 neighbourhood of (x, y) in
// Zhang–Suen order (N, NE, E, SE, S, SW, W, NW). Out-of-bounds pixels read
// as background.
func neighborhood(b *imaging.Binary, x, y int) (p [8]uint8) {
	for i, d := range imaging.Neighbors8 {
		xx, yy := x+d.X, y+d.Y
		if xx >= 0 && xx < b.W && yy >= 0 && yy < b.H {
			p[i] = b.Pix[yy*b.W+xx]
		}
	}
	return p
}

// transitions counts A(P1): the number of 0→1 patterns in the ordered
// circular sequence P2, P3, ..., P9, P2.
func transitions(p [8]uint8) int {
	n := 0
	for i := 0; i < 8; i++ {
		if p[i] == 0 && p[(i+1)%8] == 1 {
			n++
		}
	}
	return n
}

// sumNeighbors counts B(P1): the number of foreground neighbours.
func sumNeighbors(p [8]uint8) int {
	n := 0
	for _, v := range p {
		n += int(v)
	}
	return n
}

// thinZhangSuen applies the classical two-subiteration Zhang–Suen thinning
// in place until no pixel changes.
//
// Subiteration 1 deletes P1 if:
//
//	(a) 2 <= B(P1) <= 6
//	(b) A(P1) == 1
//	(c) P2 * P4 * P6 == 0   (north × east × south)
//	(d) P4 * P6 * P8 == 0   (east × south × west)
//
// Subiteration 2 replaces (c)/(d) with P2*P4*P8 == 0 and P2*P6*P8 == 0.
//
// Returns the number of iterations run (including the final stable one).
func thinZhangSuen(img *imaging.Binary) int {
	// Indices into the P2..P9 ordering: P2=0 (N), P3=1, P4=2 (E), P5=3,
	// P6=4 (S), P7=5, P8=6 (W), P9=7.
	const (
		pN = 0
		pE = 2
		pS = 4
		pW = 6
	)
	del := make([]int, 0, 256) //slj:alloc-ok one small fixed worklist per frame, counted in the bench-gate baseline
	passes := 0
	for {
		passes++
		changed := false
		for sub := 0; sub < 2; sub++ {
			del = del[:0]
			for y := 0; y < img.H; y++ {
				for x := 0; x < img.W; x++ {
					if img.Pix[y*img.W+x] == 0 {
						continue
					}
					p := neighborhood(img, x, y)
					bN := sumNeighbors(p)
					if bN < 2 || bN > 6 {
						continue
					}
					if transitions(p) != 1 {
						continue
					}
					var c1, c2 bool
					if sub == 0 {
						c1 = p[pN]*p[pE]*p[pS] == 0
						c2 = p[pE]*p[pS]*p[pW] == 0
					} else {
						c1 = p[pN]*p[pE]*p[pW] == 0
						c2 = p[pN]*p[pS]*p[pW] == 0
					}
					if c1 && c2 {
						del = append(del, y*img.W+x)
					}
				}
			}
			if len(del) > 0 {
				changed = true
				for _, i := range del {
					img.Pix[i] = 0
				}
			}
		}
		if !changed {
			return passes
		}
	}
}

// thinGuoHall applies Guo–Hall (1989) thinning in place until stable.
// Returns the number of iterations run (including the final stable one).
func thinGuoHall(img *imaging.Binary) int {
	del := make([]int, 0, 256) //slj:alloc-ok one small fixed worklist per frame, counted in the bench-gate baseline
	passes := 0
	for {
		passes++
		changed := false
		for sub := 0; sub < 2; sub++ {
			del = del[:0]
			for y := 0; y < img.H; y++ {
				for x := 0; x < img.W; x++ {
					if img.Pix[y*img.W+x] == 0 {
						continue
					}
					p := neighborhood(img, x, y)
					// Guo–Hall uses p1..p8 = N, NE, E, SE, S, SW, W, NW
					// which matches our ordering exactly.
					c := 0
					for i := 0; i < 4; i++ {
						a, b1, b2 := p[2*i], p[(2*i+1)%8], p[(2*i+2)%8]
						if a == 0 && (b1 == 1 || b2 == 1) {
							c++
						}
					}
					n1 := 0
					n2 := 0
					for i := 0; i < 4; i++ {
						if p[(2*i+7)%8] == 1 || p[2*i] == 1 {
							n1++
						}
						if p[2*i] == 1 || p[(2*i+1)%8] == 1 {
							n2++
						}
					}
					n := n1
					if n2 < n1 {
						n = n2
					}
					// m of Guo–Hall: subiteration 0 uses
					// (p6 ∨ p7 ∨ ¬p9) ∧ p8, subiteration 1 the
					// 180°-rotated (p2 ∨ p3 ∨ ¬p5) ∧ p4.
					var cond bool
					if sub == 0 {
						cond = (p[4] == 1 || p[5] == 1 || p[7] == 0) && p[6] == 1
					} else {
						cond = (p[0] == 1 || p[1] == 1 || p[3] == 0) && p[2] == 1
					}
					if c == 1 && n >= 2 && n <= 3 && !cond {
						del = append(del, y*img.W+x)
					}
				}
			}
			if len(del) > 0 {
				changed = true
				for _, i := range del {
					img.Pix[i] = 0
				}
			}
		}
		if !changed {
			return passes
		}
	}
}

// Metrics quantifies the artefacts of a raw thinning result, matching the
// problem classes of Figure 2: loops, corners and redundant short branches,
// plus general shape statistics.
type Metrics struct {
	// Pixels is the number of skeleton pixels.
	Pixels int
	// Endpoints counts pixels with exactly one 8-neighbour.
	Endpoints int
	// Junctions counts pixels with three or more 8-neighbours.
	Junctions int
	// Loops is the number of independent cycles of the skeleton,
	// computed per 8-connected component as E - V + 1.
	Loops int
	// Components is the number of 8-connected skeleton components.
	Components int
	// MaxWidthViolations counts pixels whose 2×2 block is entirely
	// foreground — places where the skeleton is not one pixel wide
	// ("corner" artefacts of Figure 2(b)).
	MaxWidthViolations int
}

// Measure computes skeleton quality metrics for a thinned image.
func Measure(skel *imaging.Binary) Metrics {
	var m Metrics
	// Count pixels, endpoints, junctions.
	for y := 0; y < skel.H; y++ {
		for x := 0; x < skel.W; x++ {
			if skel.Pix[y*skel.W+x] == 0 {
				continue
			}
			m.Pixels++
			n := sumNeighbors(neighborhood(skel, x, y))
			switch {
			case n == 1:
				m.Endpoints++
			case n >= 3:
				m.Junctions++
			}
		}
	}
	// 2x2 solid blocks.
	for y := 0; y+1 < skel.H; y++ {
		for x := 0; x+1 < skel.W; x++ {
			if skel.Pix[y*skel.W+x] == 1 && skel.Pix[y*skel.W+x+1] == 1 &&
				skel.Pix[(y+1)*skel.W+x] == 1 && skel.Pix[(y+1)*skel.W+x+1] == 1 {
				m.MaxWidthViolations++
			}
		}
	}
	// Cycle count per component. Edges are unordered 8-adjacent pairs,
	// except that a diagonal edge is ignored when the two pixels are
	// already joined by an orthogonal 2-path (otherwise every thick
	// corner would read as a spurious triangle cycle).
	at := func(x, y int) uint8 {
		if x < 0 || x >= skel.W || y < 0 || y >= skel.H {
			return 0
		}
		return skel.Pix[y*skel.W+x]
	}
	edges := 0
	for y := 0; y < skel.H; y++ {
		for x := 0; x < skel.W; x++ {
			if at(x, y) == 0 {
				continue
			}
			// Count each edge once: only to the 4 "forward" neighbours
			// (E, SE, S, SW).
			if at(x+1, y) == 1 {
				edges++
			}
			if at(x, y+1) == 1 {
				edges++
			}
			if at(x+1, y+1) == 1 && at(x+1, y) == 0 && at(x, y+1) == 0 {
				edges++
			}
			if at(x-1, y+1) == 1 && at(x-1, y) == 0 && at(x, y+1) == 0 {
				edges++
			}
		}
	}
	_, comps := imaging.Components(skel, imaging.Connect8)
	m.Components = len(comps)
	// For a graph with V vertices, E edges and C components the number of
	// independent cycles is E - V + C.
	m.Loops = edges - m.Pixels + m.Components
	if m.Loops < 0 {
		m.Loops = 0
	}
	return m
}
