package metric

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// checkAppendText requires AppendText to equal Text byte for byte, and
// a float or double value's text to equal strconv's fixed-2 form.
func checkAppendText(t *testing.T, v Value) {
	t.Helper()
	prefix := []byte("x=")
	got := v.AppendText(prefix)
	if string(got[:len(prefix)]) != "x=" || string(got[len(prefix):]) != v.Text() {
		t.Fatalf("%v %v (bits %#x): AppendText %q, Text %q",
			v.Type(), v.num, math.Float64bits(v.num), got, v.Text())
	}
	if v.Type() == TypeFloat || v.Type() == TypeDouble {
		if want := strconv.FormatFloat(v.num, 'f', 2, 64); v.Text() != want {
			t.Fatalf("%v (bits %#x): Text %q, strconv %q", v.num, math.Float64bits(v.num), v.Text(), want)
		}
	}
}

func TestAppendTextEdgeValues(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.89, 100, 12345.678,
		// fixed-2 ties, exact in binary and not
		0.125, 0.375, -0.125, 1.005, 2.675, 0.995, 9.995, 99.995, 0.005, 1.115,
		// just either side of a tie
		0.12500000000000003, 0.12499999999999999, 0.994999, 0.9950001,
		// negatives that round to zero
		-0.001, -0.004999, -0.005, -0.0050001, -math.SmallestNonzeroFloat64,
		math.SmallestNonzeroFloat64,
		// around the fast path's 2^40 bound on f·100
		(1 << 40) / 100.0, math.Nextafter((1<<40)/100.0, 0), math.Nextafter((1<<40)/100.0, 2e10),
		-(1 << 40) / 100.0, 1e10, 1e12, 1 << 53, 1e21, 1e300, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, f := range floats {
		checkAppendText(t, NewFloat(f))
		checkAppendText(t, NewDouble(f))
		checkAppendText(t, NewInt(int64(f)))
		checkAppendText(t, NewNumber(TypeUint16, f))
	}
	for _, s := range []string{"", "2.6.18", `a&b<c>"d'` + "\n\r\t", "\xff"} {
		checkAppendText(t, NewString(s))
		checkAppendText(t, NewTyped(TypeTimestamp, s))
	}
	checkAppendText(t, NewTimestamp(1057000000))
	checkAppendText(t, Value{})

	// A seeded sweep: random bit patterns, random fixed-2 ties k/200,
	// and random values of the magnitudes metrics carry.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkAppendText(t, NewDouble(math.Float64frombits(rng.Uint64())))
		checkAppendText(t, NewDouble(float64(rng.Int63n(2e9)-1e9)/200))
		checkAppendText(t, NewFloat((rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(16)))))
	}
}

// FuzzAppendText holds AppendText to Text for every type, with the
// value taken three ways from the input: as raw float bits, as a
// multiple of 1/200 (every odd multiple is a fixed-2 tie) and as a
// string.
func FuzzAppendText(f *testing.F) {
	f.Add(uint8(TypeFloat), math.Float64bits(0.125), "")
	f.Add(uint8(TypeDouble), math.Float64bits(math.Copysign(0, -1)), "")
	f.Add(uint8(TypeDouble), math.Float64bits(math.NaN()), "")
	f.Add(uint8(TypeInt32), uint64(201), "")
	f.Add(uint8(TypeString), uint64(0), "a&b\n")
	f.Fuzz(func(t *testing.T, typ uint8, bits uint64, s string) {
		typ %= uint8(TypeTimestamp) + 1
		checkAppendText(t, NewNumber(Type(typ), math.Float64frombits(bits)))
		checkAppendText(t, NewDouble(float64(int64(bits))/200))
		checkAppendText(t, NewTyped(Type(typ), s))
	})
}
