// Package detect implements the detection output stage that follows the
// network in the paper's object-detection applications: decoding a
// DetectNet-style coverage map into candidate boxes, ranking them (the
// cub radix-sort launches in the engine plan) and non-maximum
// suppression, plus IoU-based matching against ground truth.
package detect

import (
	"sort"

	"edgeinfer/internal/metrics"
	"edgeinfer/internal/tensor"
)

// Detection is one decoded object: a box, a class id and a confidence.
type Detection struct {
	Rect       metrics.Rect
	Class      int
	Confidence float64
}

// NMS performs greedy non-maximum suppression: detections are ranked by
// confidence (the sort stage of the engine plan) and any detection
// overlapping a kept one above iouThresh is suppressed.
func NMS(dets []Detection, iouThresh float64) []Detection {
	sorted := append([]Detection(nil), dets...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Confidence > sorted[j].Confidence })
	var kept []Detection
	for _, d := range sorted {
		suppressed := false
		for _, k := range kept {
			if metrics.IoU(d.Rect, k.Rect) > iouThresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// Match greedily assigns detections to ground-truth rectangles at the
// IoU threshold and returns (truePositives, falsePositives,
// falseNegatives) — the counts behind the paper's precision/recall
// metric.
func Match(dets []Detection, truth []metrics.Rect, iouThresh float64) (tp, fp, fn int) {
	matched := make([]bool, len(truth))
	for _, d := range dets {
		best, bi := 0.0, -1
		for i, t := range truth {
			if matched[i] {
				continue
			}
			if iou := metrics.IoU(d.Rect, t); iou > best {
				best, bi = iou, i
			}
		}
		if bi >= 0 && best >= iouThresh {
			matched[bi] = true
			tp++
		} else {
			fp++
		}
	}
	for _, m := range matched {
		if !m {
			fn++
		}
	}
	return tp, fp, fn
}

// PrecisionRecall converts match counts to percentages.
func PrecisionRecall(tp, fp, fn int) (float64, float64) {
	prec, rec := 100.0, 100.0
	if tp+fp > 0 {
		prec = 100 * float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		rec = 100 * float64(tp) / float64(tp+fn)
	}
	return prec, rec
}

// SameDetections reports whether two detection sets describe the same
// objects (pairwise IoU >= 0.9 with equal counts) — the consistency
// check for the paper's "obstacle may or may not be detected" hazard.
func SameDetections(a, b []Detection) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
	for _, da := range a {
		found := false
		for i, db := range b {
			if used[i] {
				continue
			}
			if metrics.IoU(da.Rect, db.Rect) >= 0.9 {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// DecodeRegions extracts detections as connected components of coverage
// cells above the threshold: each component's bounding box (scaled by
// stride) is one detection with the component's mean coverage as
// confidence. This matches how DetectNet-style coverage maps are decoded
// when object extents vary.
func DecodeRegions(cov *tensor.Tensor, stride int, threshold float64) []Detection {
	h, w := cov.H, cov.W
	visited := make([]bool, h*w)
	var out []Detection
	for sy := 0; sy < h; sy++ {
		for sx := 0; sx < w; sx++ {
			if visited[sy*w+sx] || float64(cov.At(0, 0, sy, sx)) < threshold {
				continue
			}
			// BFS over the component.
			minX, minY, maxX, maxY := sx, sy, sx, sy
			var sum float64
			n := 0
			queue := [][2]int{{sy, sx}}
			visited[sy*w+sx] = true
			for len(queue) > 0 {
				cell := queue[0]
				queue = queue[1:]
				y, x := cell[0], cell[1]
				sum += float64(cov.At(0, 0, y, x))
				n++
				if x < minX {
					minX = x
				}
				if x > maxX {
					maxX = x
				}
				if y < minY {
					minY = y
				}
				if y > maxY {
					maxY = y
				}
				for _, d := range [][2]int{{y - 1, x}, {y + 1, x}, {y, x - 1}, {y, x + 1}} {
					yy, xx := d[0], d[1]
					if yy < 0 || yy >= h || xx < 0 || xx >= w || visited[yy*w+xx] {
						continue
					}
					if float64(cov.At(0, 0, yy, xx)) < threshold {
						continue
					}
					visited[yy*w+xx] = true
					queue = append(queue, [2]int{yy, xx})
				}
			}
			out = append(out, Detection{
				Rect: metrics.Rect{
					X: minX * stride, Y: minY * stride,
					W: (maxX - minX + 1) * stride, H: (maxY - minY + 1) * stride,
				},
				Confidence: sum / float64(n),
			})
		}
	}
	return out
}
