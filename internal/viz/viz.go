// Package viz renders series as plain-text charts so cmd/benchtables
// can show the paper's figures as figures, not just tables, in any
// terminal. No color and only ASCII glyphs, so output survives logs
// and diffs.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// validPoints returns the finite points of the series.
func (s Series) validPoints() (xs, ys []float64) {
	for i := range s.X {
		if i < len(s.Y) && !math.IsNaN(s.Y[i]) && !math.IsInf(s.Y[i], 0) {
			xs = append(xs, s.X[i])
			ys = append(ys, s.Y[i])
		}
	}
	return xs, ys
}

// Plot renders one or more series as a dot-matrix line chart with a
// y-axis scale. Each series uses its own glyph; collisions render '+'.
func Plot(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	glyphs := []byte{'*', 'o', 'x', '@', '%', '&'}

	// Global bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		xs, ys := s.validPoints()
		for i := range xs {
			any = true
			minX = math.Min(minX, xs[i])
			maxX = math.Max(maxX, xs[i])
			minY = math.Min(minY, ys[i])
			maxY = math.Max(maxY, ys[i])
		}
	}
	if !any {
		return fmt.Sprintf("%s: (no data)\n", title)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		xs, ys := s.validPoints()
		for i := range xs {
			c := int((xs[i] - minX) / (maxX - minX) * float64(width-1))
			r := height - 1 - int((ys[i]-minY)/(maxY-minY)*float64(height-1))
			if grid[r][c] != ' ' && grid[r][c] != g {
				grid[r][c] = '+'
			} else {
				grid[r][c] = g
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for r := 0; r < height; r++ {
		yVal := maxY - (maxY-minY)*float64(r)/float64(height-1)
		fmt.Fprintf(&sb, "%10.3g |%s|\n", yVal, grid[r])
	}
	fmt.Fprintf(&sb, "%10s  %-*.4g%*.4g\n", "", width/2, minX, width-width/2, maxX)
	if len(series) > 1 {
		sb.WriteString("legend:")
		for si, s := range series {
			fmt.Fprintf(&sb, " %c=%s", glyphs[si%len(glyphs)], s.Name)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
