package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"aq2pnn/internal/nn"
	"aq2pnn/internal/ring"
	"aq2pnn/internal/tensor"
)

// The secure BNReQ truncation is exact to ±1 LSB while the value it
// truncates stays within a quarter of the carrier, and garbage beyond
// (see nn.StochasticRing). Secure inference is data-oblivious — no
// figure this benchmark measures depends on the input values — so the
// workloads feed only inputs inside that contract, and the correctness
// check holds the revealed logits to the error the ±1 steps can
// accumulate through the model on that input.

// inputMag bounds the input values: inputs are drawn from
// [-inputMag, inputMag), which keeps the synthetic LeNet5 inside a
// 16-bit carrier's contract on almost every draw.
const inputMag = 4

// input is client c's i-th input: distinct per inference, fixed by the
// seed, and the first draw for (c, i) inside the truncation contract. It
// depends on neither the workload nor the bank mode, so micro-warm and
// micro-cold at one seed feed the same stream.
func input(m *nn.Model, r ring.Ring, seed uint64, c, i int) ([]int64, error) {
	const attempts = 64
	for a := 0; a < attempts; a++ {
		g := rand.New(rand.NewPCG(derive(seed, 3), uint64(c)<<48|uint64(i)<<8|uint64(a)))
		x := make([]int64, m.InputShape().Numel())
		for k := range x {
			x[k] = g.Int64N(2*inputMag) - inputMag
		}
		outs, err := m.ForwardAll(x, nn.ForwardOptions{Mode: nn.Exact})
		if err != nil {
			return nil, err
		}
		if inDomain(m, outs, r) {
			return x, nil
		}
	}
	return nil, fmt.Errorf("client %d input %d: no draw of %d inside the truncation contract", c, i, attempts)
}

// inDomain reports whether every truncation of the plaintext forward
// pass (outs, from nn.Exact) truncates a value below a quarter of the
// carrier.
func inDomain(m *nn.Model, outs [][]int64, r ring.Ring) bool {
	quarter := int64(r.Q() / 4)
	for i, node := range m.Nodes {
		var ie uint
		switch op := node.Op.(type) {
		case *nn.Conv:
			ie = op.Ie
		case *nn.FC:
			ie = op.Ie
		default:
			continue
		}
		// |out| ≤ limit keeps the pre-shift value |out·2^Ie| (plus the
		// shifted-out remainder) below Q/4.
		limit := quarter>>ie - 1
		for _, v := range outs[i] {
			if v > limit || -v > limit {
				return false
			}
		}
	}
	return true
}

// logitBound bounds the distance between the secure logits and the
// plaintext ring-mode forward pass on the in-domain input x. Each
// faithful truncation returns the floor or one below it, the two floors
// of the shares, so it adds an error in [-1, 0]. The bound propagates,
// element by element, both a worst case and a noise model of those
// errors (mean -1/2, variance at most 1/4, independent between
// truncations): a linear layer carries them through its weights and
// scale; a ReLU passes an element's error on unless the element is
// negative even with its error added, where both sides read zero; max
// pooling passes the largest error of its window. The worst case holds
// always but grows far past the noise on deep models; the bound is the
// smaller of the worst case and the model's mean plus eight standard
// deviations.
func logitBound(m *nn.Model, x []int64) (int64, error) {
	outs, err := m.ForwardAll(x, nn.ForwardOptions{Mode: nn.Exact})
	if err != nil {
		return 0, err
	}
	errs := make([]errVec, len(m.Nodes))
	in := func(i int) errVec {
		if j := m.Nodes[i].Inputs[0]; j >= 0 {
			return errs[j]
		}
		return newErrVec(len(x)) // the input is shared exactly
	}
	value := func(i int) []int64 {
		if j := m.Nodes[i].Inputs[0]; j >= 0 {
			return outs[j]
		}
		return x
	}
	for i, node := range m.Nodes {
		e := in(i)
		switch op := node.Op.(type) {
		case *nn.Conv:
			g := op.Geom
			pl, patches := g.PatchLen(), g.Patches()
			// Column k of patch p reads input element idx[p·pl+k]; padding
			// reads index 0 of a zero-error sentinel.
			idx := make([]uint64, len(e.worst))
			for k := range idx {
				idx[k] = uint64(k) + 1
			}
			cols := tensor.Im2ColInt(idx, g)
			pad := e.withSentinel()
			out := newErrVec(g.OutC * patches)
			for oc := 0; oc < g.OutC; oc++ {
				w := op.W[oc*pl : (oc+1)*pl]
				for p := 0; p < patches; p++ {
					out.linear(oc*patches+p, pad, w, cols[p*pl:(p+1)*pl], op.Im[oc], op.Ie)
				}
			}
			errs[i] = out
		case *nn.FC:
			pad := e.withSentinel()
			cols := make([]uint64, op.In)
			for k := range cols {
				cols[k] = uint64(k) + 1
			}
			out := newErrVec(op.Out)
			for o := 0; o < op.Out; o++ {
				out.linear(o, pad, op.W[o*op.In:(o+1)*op.In], cols, op.Im[o], op.Ie)
			}
			errs[i] = out
		case nn.ReLU:
			v := value(i)
			out := newErrVec(len(e.worst))
			for k := range v {
				if v[k]+int64(e.limit(k)) > 0 {
					out.set(k, e, k)
				}
			}
			errs[i] = out
		case *nn.MaxPool:
			out := newErrVec(len(outs[i]))
			tensor.PoolWindows(op.Geom, func(oi int, win []int) {
				for _, ii := range win {
					if e.limit(ii) > out.limit(oi) {
						out.set(oi, e, ii)
					}
				}
			})
			errs[i] = out
		case nn.Flatten:
			errs[i] = e
		default:
			return 0, fmt.Errorf("no error bound for %s nodes", node.Op.Kind())
		}
	}
	last := errs[len(errs)-1]
	var bound float64
	for k := range last.worst {
		bound = max(bound, last.limit(k))
	}
	return int64(bound), nil
}

// errVec is the error of every element of one node's output: the worst
// case, and the mean and variance under the truncation noise model.
type errVec struct {
	worst    []float64
	mean, vr []float64
}

func newErrVec(n int) errVec {
	return errVec{worst: make([]float64, n), mean: make([]float64, n), vr: make([]float64, n)}
}

// limit is the element's error bound: the smaller of the worst case and
// |mean| + 8σ, rounded up.
func (e errVec) limit(k int) float64 {
	return math.Ceil(min(e.worst[k], math.Abs(e.mean[k])+8*math.Sqrt(e.vr[k])))
}

func (e errVec) set(k int, from errVec, j int) {
	e.worst[k], e.mean[k], e.vr[k] = from.worst[j], from.mean[j], from.vr[j]
}

// withSentinel returns e shifted up by one element behind a zero-error
// element 0, for index vectors where 0 stands for padding.
func (e errVec) withSentinel() errVec {
	return errVec{
		worst: append([]float64{0}, e.worst...),
		mean:  append([]float64{0}, e.mean...),
		vr:    append([]float64{0}, e.vr...),
	}
}

// linear sets element k to the error of (Σ w[j]·in[idx[j]]) · im >> ie,
// then one faithful truncation.
func (e errVec) linear(k int, in errVec, w []int64, idx []uint64, im int64, ie uint) {
	s := float64(im) / float64(uint64(1)<<ie)
	var worst, mean, vr float64
	for j, wj := range w {
		x := idx[j]
		c := float64(wj) * s
		worst += math.Abs(c) * in.worst[x]
		mean += c * in.mean[x]
		vr += c * c * in.vr[x]
	}
	e.worst[k] = math.Ceil(worst) + 1
	e.mean[k] = mean - 0.5
	e.vr[k] = vr + 0.25
}
