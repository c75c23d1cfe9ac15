package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"omegago"
	"omegago/api"
)

// row is the part of a grid row the output digest covers: position,
// validity, ω and maximizing window. Work counters (scores, r²) are left
// out on purpose — a change that avoids work lowers them while the
// answer stays the same.
type row struct {
	Pos         float64
	Valid       bool
	Omega       float64
	Left, Right float64
}

func digestRows(rows []row) string {
	h := sha256.New()
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, r := range rows {
		put(r.Pos)
		if !r.Valid {
			h.Write([]byte{0})
			continue
		}
		h.Write([]byte{1})
		put(r.Omega)
		put(r.Left)
		put(r.Right)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digest hashes the rows of a library scan.
func digest(results []omegago.Result) string {
	rows := make([]row, len(results))
	for i, r := range results {
		rows[i] = row{Pos: r.Center, Valid: r.Valid, Omega: r.MaxOmega, Left: r.LeftPos, Right: r.RightPos}
	}
	return digestRows(rows)
}

// rowsDigest hashes the rows of a wire report.
func rowsDigest(results []api.ResultRow) string {
	rows := make([]row, len(results))
	for i, r := range results {
		rows[i] = row{Pos: r.Position, Valid: r.Valid, Omega: r.Omega, Left: r.WinLeft, Right: r.WinRight}
	}
	return digestRows(rows)
}
