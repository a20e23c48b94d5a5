package stats

import "math"

// medianNet24 returns the median of the 24 values in s without writing to
// s. It runs a fixed comparator network — Batcher's odd-even mergesort on
// 32 wires, pruned to 24 real wires and then backward-pruned to the 108
// compare-exchanges that can influence output positions 11 and 12 — and
// averages the two middle order statistics, exactly like a full sort
// followed by (s[11]+s[12])/2.
//
// The network does not compare floats. Each value is mapped to its
// orderKey, an int64 whose signed order is the float order with -0 below
// +0, which is the total order Go's float min and max use. A comparator
// network puts the same order statistics on the same wires under any total
// order (0-1 principle), so the two middle keys decode to the same bits the
// float network would leave there, signed zeros included. The point is the
// instruction count: Go lowers a float min/max pair to about eight
// instructions with signed-zero fixups, an integer pair to CMP and two
// CMOVs, and the 24 keys live in locals, so nothing is stored between
// steps. The cost is also data-independent: the EMD kernel feeds this
// function cumulative-difference sequences whose order varies wildly
// between rotations, and data-dependent branches there mispredict often
// enough to dominate a placement run.
//
// TestMedianNet24ZeroOne reads the comparator pairs from this file and
// checks wires 11 and 12 on all 2^24 boolean inputs.
//
// The values must not be NaN: a NaN has no place in the key order and would
// yield a wrong median rather than a NaN one. The EMD entry points reject
// every input that could produce a NaN cumulative difference
// (checkEMDInputs), so the kernel never passes one.
func medianNet24(s []float64) float64 {
	v := (*[24]float64)(s)
	x0, x1, x2, x3 := orderKey(v[0]), orderKey(v[1]), orderKey(v[2]), orderKey(v[3])
	x4, x5, x6, x7 := orderKey(v[4]), orderKey(v[5]), orderKey(v[6]), orderKey(v[7])
	x8, x9, x10, x11 := orderKey(v[8]), orderKey(v[9]), orderKey(v[10]), orderKey(v[11])
	x12, x13, x14, x15 := orderKey(v[12]), orderKey(v[13]), orderKey(v[14]), orderKey(v[15])
	x16, x17, x18, x19 := orderKey(v[16]), orderKey(v[17]), orderKey(v[18]), orderKey(v[19])
	x20, x21, x22, x23 := orderKey(v[20]), orderKey(v[21]), orderKey(v[22]), orderKey(v[23])

	x0, x1 = min(x0, x1), max(x0, x1)
	x2, x3 = min(x2, x3), max(x2, x3)
	x0, x2 = min(x0, x2), max(x0, x2)
	x1, x3 = min(x1, x3), max(x1, x3)
	x1, x2 = min(x1, x2), max(x1, x2)
	x4, x5 = min(x4, x5), max(x4, x5)

	x6, x7 = min(x6, x7), max(x6, x7)
	x4, x6 = min(x4, x6), max(x4, x6)
	x5, x7 = min(x5, x7), max(x5, x7)
	x5, x6 = min(x5, x6), max(x5, x6)
	x0, x4 = min(x0, x4), max(x0, x4)
	x2, x6 = min(x2, x6), max(x2, x6)

	x2, x4 = min(x2, x4), max(x2, x4)
	x1, x5 = min(x1, x5), max(x1, x5)
	x3, x7 = min(x3, x7), max(x3, x7)
	x3, x5 = min(x3, x5), max(x3, x5)
	x1, x2 = min(x1, x2), max(x1, x2)
	x3, x4 = min(x3, x4), max(x3, x4)

	x5, x6 = min(x5, x6), max(x5, x6)
	x8, x9 = min(x8, x9), max(x8, x9)
	x10, x11 = min(x10, x11), max(x10, x11)
	x8, x10 = min(x8, x10), max(x8, x10)
	x9, x11 = min(x9, x11), max(x9, x11)
	x9, x10 = min(x9, x10), max(x9, x10)

	x12, x13 = min(x12, x13), max(x12, x13)
	x14, x15 = min(x14, x15), max(x14, x15)
	x12, x14 = min(x12, x14), max(x12, x14)
	x13, x15 = min(x13, x15), max(x13, x15)
	x13, x14 = min(x13, x14), max(x13, x14)
	x8, x12 = min(x8, x12), max(x8, x12)

	x10, x14 = min(x10, x14), max(x10, x14)
	x10, x12 = min(x10, x12), max(x10, x12)
	x9, x13 = min(x9, x13), max(x9, x13)
	x11, x15 = min(x11, x15), max(x11, x15)
	x11, x13 = min(x11, x13), max(x11, x13)
	x9, x10 = min(x9, x10), max(x9, x10)

	x11, x12 = min(x11, x12), max(x11, x12)
	x13, x14 = min(x13, x14), max(x13, x14)
	x0, x8 = min(x0, x8), max(x0, x8)
	x4, x12 = min(x4, x12), max(x4, x12)
	x4, x8 = min(x4, x8), max(x4, x8)
	x2, x10 = min(x2, x10), max(x2, x10)

	x6, x14 = min(x6, x14), max(x6, x14)
	x6, x10 = min(x6, x10), max(x6, x10)
	x2, x4 = min(x2, x4), max(x2, x4)
	x6, x8 = min(x6, x8), max(x6, x8)
	x10, x12 = min(x10, x12), max(x10, x12)
	x1, x9 = min(x1, x9), max(x1, x9)

	x5, x13 = min(x5, x13), max(x5, x13)
	x5, x9 = min(x5, x9), max(x5, x9)
	x3, x11 = min(x3, x11), max(x3, x11)
	x7, x15 = min(x7, x15), max(x7, x15)
	x7, x11 = min(x7, x11), max(x7, x11)
	x3, x5 = min(x3, x5), max(x3, x5)

	x7, x9 = min(x7, x9), max(x7, x9)
	x11, x13 = min(x11, x13), max(x11, x13)
	x1, x2 = min(x1, x2), max(x1, x2)
	x3, x4 = min(x3, x4), max(x3, x4)
	x5, x6 = min(x5, x6), max(x5, x6)
	x7, x8 = min(x7, x8), max(x7, x8)

	x9, x10 = min(x9, x10), max(x9, x10)
	x11, x12 = min(x11, x12), max(x11, x12)
	x13, x14 = min(x13, x14), max(x13, x14)
	x16, x17 = min(x16, x17), max(x16, x17)
	x18, x19 = min(x18, x19), max(x18, x19)
	x16, x18 = min(x16, x18), max(x16, x18)

	x17, x19 = min(x17, x19), max(x17, x19)
	x17, x18 = min(x17, x18), max(x17, x18)
	x20, x21 = min(x20, x21), max(x20, x21)
	x22, x23 = min(x22, x23), max(x22, x23)
	x20, x22 = min(x20, x22), max(x20, x22)
	x21, x23 = min(x21, x23), max(x21, x23)

	x21, x22 = min(x21, x22), max(x21, x22)
	x16, x20 = min(x16, x20), max(x16, x20)
	x18, x22 = min(x18, x22), max(x18, x22)
	x18, x20 = min(x18, x20), max(x18, x20)
	x17, x21 = min(x17, x21), max(x17, x21)
	x19, x23 = min(x19, x23), max(x19, x23)

	x19, x21 = min(x19, x21), max(x19, x21)
	x17, x18 = min(x17, x18), max(x17, x18)
	x19, x20 = min(x19, x20), max(x19, x20)
	x21, x22 = min(x21, x22), max(x21, x22)
	x18, x20 = min(x18, x20), max(x18, x20)
	x19, x21 = min(x19, x21), max(x19, x21)

	x17, x18 = min(x17, x18), max(x17, x18)
	x19, x20 = min(x19, x20), max(x19, x20)
	x21, x22 = min(x21, x22), max(x21, x22)
	x0, x16 = min(x0, x16), max(x0, x16)
	x8, x16 = min(x8, x16), max(x8, x16)
	x4, x20 = min(x4, x20), max(x4, x20)

	x12, x20 = min(x12, x20), max(x12, x20)
	x12, x16 = min(x12, x16), max(x12, x16)
	x2, x18 = min(x2, x18), max(x2, x18)
	x10, x18 = min(x10, x18), max(x10, x18)
	x6, x22 = min(x6, x22), max(x6, x22)
	x6, x10 = min(x6, x10), max(x6, x10)

	x10, x12 = min(x10, x12), max(x10, x12)
	x1, x17 = min(x1, x17), max(x1, x17)
	x9, x17 = min(x9, x17), max(x9, x17)
	x5, x21 = min(x5, x21), max(x5, x21)
	x13, x21 = min(x13, x21), max(x13, x21)
	x13, x17 = min(x13, x17), max(x13, x17)

	x3, x19 = min(x3, x19), max(x3, x19)
	x11, x19 = min(x11, x19), max(x11, x19)
	x7, x23 = min(x7, x23), max(x7, x23)
	x7, x11 = min(x7, x11), max(x7, x11)
	x11, x13 = min(x11, x13), max(x11, x13)
	x11, x12 = min(x11, x12), max(x11, x12)

	return (keyFloat(x11) + keyFloat(x12)) / 2
}

// orderKey maps a non-NaN float64 to an int64 with the same order: a < b
// implies orderKey(a) < orderKey(b), and -0 maps below +0. Non-negative
// floats keep their bits, which already sort as integers; negative floats
// keep their sign bit and flip the rest, which reverses their magnitude
// order.
func orderKey(f float64) int64 {
	b := int64(math.Float64bits(f))
	return b ^ int64(uint64(b>>63)>>1)
}

// keyFloat inverts orderKey bit for bit. The map keeps the sign bit, so it
// is its own inverse.
func keyFloat(k int64) float64 {
	return math.Float64frombits(uint64(k ^ int64(uint64(k>>63)>>1)))
}
