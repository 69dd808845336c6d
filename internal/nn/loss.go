package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// cloneInto returns a pooled (or heap, without a pool) copy of x.
func cloneInto(p *tensor.Pool, x *tensor.Tensor) *tensor.Tensor {
	out := p.GetTensorUninit(x.Shape...)
	copy(out.Data, x.Data)
	return out
}

// Softmax returns the row-wise softmax of logits (shape [batch, classes])
// computed with the max-subtraction trick for numerical stability.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	return softmaxPool(nil, logits)
}

// softmaxPool is Softmax with the output drawn from a scratch arena (nil
// falls back to the heap).
func softmaxPool(p *tensor.Pool, logits *tensor.Tensor) *tensor.Tensor {
	if len(logits.Shape) != 2 {
		panic(fmt.Sprintf("nn: Softmax needs rank-2 logits, got %v", logits.Shape))
	}
	batch, classes := logits.Shape[0], logits.Shape[1]
	out := p.GetTensorUninit(batch, classes)
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		orow := out.Data[b*classes : (b+1)*classes]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			orow[j] = e
			sum += e
		}
		inv := 1.0 / sum
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// CrossEntropy computes the mean cross-entropy loss of logits against hard
// integer labels and the gradient of that loss with respect to the logits
// (softmax(x) − onehot, scaled by 1/batch).
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return crossEntropyPool(nil, logits, labels)
}

// crossEntropyPool is CrossEntropy with its temporaries drawn from a
// scratch arena (nil falls back to the heap).
func crossEntropyPool(p *tensor.Pool, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	batch, classes := logits.Shape[0], logits.Shape[1]
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: CrossEntropy %d labels for batch %d", len(labels), batch))
	}
	probs := softmaxPool(p, logits)
	grad := cloneInto(p, probs)
	loss := 0.0
	invB := 1.0 / float64(batch)
	for b := 0; b < batch; b++ {
		y := labels[b]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		pv := probs.Data[b*classes+y]
		loss -= math.Log(math.Max(pv, 1e-12))
		grad.Data[b*classes+y] -= 1
	}
	grad.ScaleInPlace(invB)
	return loss * invB, grad
}

// CrossEntropySoft computes the mean cross-entropy of logits against a soft
// target distribution (shape [classes], broadcast across the batch) and the
// gradient with respect to the logits. DFA-R's objective — steering the
// global model toward the uniform output Y_D = [1/L, …, 1/L] — uses this
// with a uniform target.
func CrossEntropySoft(logits *tensor.Tensor, target []float64) (float64, *tensor.Tensor) {
	return CrossEntropySoftPool(nil, logits, target)
}

// CrossEntropySoftPool is CrossEntropySoft with its temporaries and the
// returned gradient drawn from a scratch arena (nil falls back to the
// heap), so a DFA-R synthesis step that passes its frozen model's arena
// allocates nothing.
func CrossEntropySoftPool(p *tensor.Pool, logits *tensor.Tensor, target []float64) (float64, *tensor.Tensor) {
	batch, classes := logits.Shape[0], logits.Shape[1]
	if len(target) != classes {
		panic(fmt.Sprintf("nn: CrossEntropySoft target length %d, want %d", len(target), classes))
	}
	probs := softmaxPool(p, logits)
	grad := cloneInto(p, probs)
	loss := 0.0
	invB := 1.0 / float64(batch)
	for b := 0; b < batch; b++ {
		row := probs.Data[b*classes : (b+1)*classes]
		grow := grad.Data[b*classes : (b+1)*classes]
		for j := 0; j < classes; j++ {
			if target[j] > 0 {
				loss -= target[j] * math.Log(math.Max(row[j], 1e-12))
			}
			grow[j] -= target[j]
		}
	}
	grad.ScaleInPlace(invB)
	return loss * invB, grad
}

// UniformTarget returns the length-L uniform distribution [1/L, …, 1/L].
func UniformTarget(classes int) []float64 {
	t := make([]float64, classes)
	for i := range t {
		t[i] = 1.0 / float64(classes)
	}
	return t
}

// Predict returns the argmax class for every row of logits.
func Predict(logits *tensor.Tensor) []int {
	batch, classes := logits.Shape[0], logits.Shape[1]
	out := make([]int, batch)
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[b] = best
	}
	return out
}

// PredictInto is Predict writing into a caller-owned slice, for evaluation
// loops that run allocation-free.
func PredictInto(dst []int, logits *tensor.Tensor) []int {
	batch, classes := logits.Shape[0], logits.Shape[1]
	dst = dst[:0]
	for b := 0; b < batch; b++ {
		row := logits.Data[b*classes : (b+1)*classes]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		dst = append(dst, best)
	}
	return dst
}
