package imaging

// MedianFilterBinary applies a k×k median filter to a binary image; k must be
// odd and >= 1. For bi-level data the median reduces to majority voting, so
// the filter fills pinholes and shaves ridged edges exactly as the paper uses
// it on the extracted silhouette (Figure 1(c)). Pixels whose window leaves
// the image are computed over the in-bounds part of the window.
func MedianFilterBinary(src *Binary, k int) *Binary {
	return MedianFilterBinaryInto(nil, src, k)
}

// MedianFilterBinaryInto is MedianFilterBinary writing into dst, which is
// resized as needed (nil allocates a fresh image). dst must not alias src.
// It returns dst, so hot paths can recycle one destination buffer across
// frames instead of allocating per call.
func MedianFilterBinaryInto(dst *Binary, src *Binary, k int) *Binary {
	if k < 1 || k%2 == 0 {
		panic("imaging.MedianFilterBinary: kernel size must be odd and positive")
	}
	if dst == nil {
		dst = &Binary{}
	}
	dst.W, dst.H = src.W, src.H
	if n := src.W * src.H; cap(dst.Pix) < n { //slj:alloc-ok dst regrow on first use or a larger frame, amortised across frames
		dst.Pix = make([]uint8, n)
	} else {
		dst.Pix = dst.Pix[:n]
	}
	out := dst
	r := k / 2
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			ones, total := 0, 0
			for dy := -r; dy <= r; dy++ {
				yy := y + dy
				if yy < 0 || yy >= src.H {
					continue
				}
				row := src.Pix[yy*src.W:]
				for dx := -r; dx <= r; dx++ {
					xx := x + dx
					if xx < 0 || xx >= src.W {
						continue
					}
					total++
					if row[xx] != 0 {
						ones++
					}
				}
			}
			if 2*ones > total {
				out.Pix[y*out.W+x] = 1
			} else {
				out.Pix[y*out.W+x] = 0
			}
		}
	}
	return out
}

// BoxAverageRGB computes, for every pixel and channel, the mean over an n×n
// window centred on the pixel, exactly the moving-window average matrices
// A_ave and B_ave of Section 2 (steps i–ii). n must be odd and positive.
// Windows are clipped at the border and averaged over the in-bounds pixels.
//
// The implementation uses per-channel summed-area tables so the cost is
// O(W·H) independent of n.
func BoxAverageRGB(src *RGB, n int) *RGB {
	out, _ := BoxAverageRGBInto(nil, src, n, nil)
	return out
}

// BoxAverageRGBInto is BoxAverageRGB writing into dst (resized as needed;
// nil allocates) with sat as summed-area scratch (grown as needed; nil
// allocates). dst must not alias src. It returns dst and the scratch so a
// hot path can thread both through successive frames and reach zero
// steady-state allocations.
func BoxAverageRGBInto(dst *RGB, src *RGB, n int, sat []int64) (*RGB, []int64) {
	if n < 1 || n%2 == 0 {
		panic("imaging.BoxAverageRGB: window size must be odd and positive")
	}
	w, h := src.W, src.H
	if dst == nil {
		dst = &RGB{}
	}
	dst.W, dst.H = w, h
	if need := 3 * w * h; cap(dst.Pix) < need { //slj:alloc-ok dst regrow on first use or a larger frame, amortised across frames
		dst.Pix = make([]uint8, need)
	} else {
		dst.Pix = dst.Pix[:need]
	}
	out := dst
	// Per-channel summed-area tables with a zero top row and left column,
	// packed back to back in sat: sat[c*sw*sh + (y+1)*sw + x+1] is the
	// channel-c sum over the rectangle [0..x]×[0..y].
	sw, sh := w+1, h+1
	if need := 3 * sw * sh; cap(sat) < need {
		sat = make([]int64, need) //slj:alloc-ok summed-area scratch regrow, amortised across frames
	} else {
		sat = sat[:need]
		clear(sat[:sw]) // zero top row; the fill below writes the rest
		for c := 1; c < 3; c++ {
			clear(sat[c*sw*sh : c*sw*sh+sw])
		}
	}
	var tab [3][]int64
	for c := 0; c < 3; c++ {
		tab[c] = sat[c*sw*sh : (c+1)*sw*sh]
	}
	for y := 0; y < h; y++ {
		var run [3]int64
		tab[0][(y+1)*sw], tab[1][(y+1)*sw], tab[2][(y+1)*sw] = 0, 0, 0 // zero left column
		for x := 0; x < w; x++ {
			i := 3 * (y*w + x)
			for c := 0; c < 3; c++ {
				run[c] += int64(src.Pix[i+c])
				tab[c][(y+1)*sw+x+1] = tab[c][y*sw+x+1] + run[c]
			}
		}
	}
	r := n / 2
	for y := 0; y < h; y++ {
		y0, y1 := y-r, y+r+1
		if y0 < 0 {
			y0 = 0
		}
		if y1 > h {
			y1 = h
		}
		for x := 0; x < w; x++ {
			x0, x1 := x-r, x+r+1
			if x0 < 0 {
				x0 = 0
			}
			if x1 > w {
				x1 = w
			}
			area := int64((y1 - y0) * (x1 - x0))
			o := 3 * (y*w + x)
			for c := 0; c < 3; c++ {
				s := tab[c][y1*sw+x1] - tab[c][y0*sw+x1] - tab[c][y1*sw+x0] + tab[c][y0*sw+x0]
				out.Pix[o+c] = uint8((s + area/2) / area)
			}
		}
	}
	return out, sat
}

// Dilate returns the binary dilation of src with a 3×3 square structuring
// element: a pixel is foreground if any pixel in its 8-neighbourhood
// (or itself) is foreground.
func Dilate(src *Binary) *Binary {
	out := NewBinary(src.W, src.H)
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			if src.Pix[y*src.W+x] != 0 {
				out.Pix[y*out.W+x] = 1
				continue
			}
			for _, d := range Neighbors8 {
				xx, yy := x+d.X, y+d.Y
				if xx >= 0 && xx < src.W && yy >= 0 && yy < src.H && src.Pix[yy*src.W+xx] != 0 {
					out.Pix[y*out.W+x] = 1
					break
				}
			}
		}
	}
	return out
}

// Erode returns the binary erosion of src with a 3×3 square structuring
// element: a pixel stays foreground only if its whole 8-neighbourhood is
// foreground. Pixels on the image border are eroded (treated as touching
// background).
func Erode(src *Binary) *Binary {
	out := NewBinary(src.W, src.H)
	for y := 0; y < src.H; y++ {
	pixels:
		for x := 0; x < src.W; x++ {
			if src.Pix[y*src.W+x] == 0 {
				continue
			}
			for _, d := range Neighbors8 {
				xx, yy := x+d.X, y+d.Y
				if xx < 0 || xx >= src.W || yy < 0 || yy >= src.H || src.Pix[yy*src.W+xx] == 0 {
					continue pixels
				}
			}
			out.Pix[y*out.W+x] = 1
		}
	}
	return out
}

// Open performs erosion followed by dilation (removes small speckle).
func Open(src *Binary) *Binary { return Dilate(Erode(src)) }

// Close performs dilation followed by erosion (fills small holes).
func Close(src *Binary) *Binary { return Erode(Dilate(src)) }
