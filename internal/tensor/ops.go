package tensor

import "fmt"

// Conv2D computes a 2-D cross-correlation of a CHW input with OIHW filters,
// using the given stride and symmetric zero padding, producing a CHW output.
// This matches the semantics of the conv2d tensor operation in the CHET DSL.
func Conv2D(input, filters *Tensor, stride, pad int) *Tensor {
	if input.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Conv2D input must be CHW, got %v", input.Shape))
	}
	if filters.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D filters must be OIHW, got %v", filters.Shape))
	}
	cin, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	cout, fcin, kh, kw := filters.Shape[0], filters.Shape[1], filters.Shape[2], filters.Shape[3]
	if fcin != cin {
		panic(fmt.Sprintf("tensor: filter input channels %d != input channels %d", fcin, cin))
	}
	hout := (h+2*pad-kh)/stride + 1
	wout := (w+2*pad-kw)/stride + 1
	if hout <= 0 || wout <= 0 {
		panic("tensor: Conv2D output would be empty")
	}
	out := New(cout, hout, wout)
	for oc := 0; oc < cout; oc++ {
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				acc := 0.0
				for ic := 0; ic < cin; ic++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							acc += input.At(ic, iy, ix) * filters.At(oc, ic, ky, kx)
						}
					}
				}
				out.Set(acc, oc, oy, ox)
			}
		}
	}
	return out
}

// MatVec computes weights * x + bias for a [out, in] weight matrix, a
// flattened input of length in, and a bias of length out (bias may be nil).
func MatVec(weights *Tensor, x *Tensor, bias *Tensor) *Tensor {
	if weights.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatVec weights must be 2-D, got %v", weights.Shape))
	}
	outDim, inDim := weights.Shape[0], weights.Shape[1]
	if x.Size() != inDim {
		panic(fmt.Sprintf("tensor: MatVec input size %d != weights columns %d", x.Size(), inDim))
	}
	if bias != nil && bias.Size() != outDim {
		panic(fmt.Sprintf("tensor: bias size %d != output size %d", bias.Size(), outDim))
	}
	out := New(outDim)
	for o := 0; o < outDim; o++ {
		acc := 0.0
		row := weights.Data[o*inDim : (o+1)*inDim]
		for i, wv := range row {
			acc += wv * x.Data[i]
		}
		if bias != nil {
			acc += bias.Data[o]
		}
		out.Data[o] = acc
	}
	return out
}

// AvgPool2D applies average pooling with the given window and stride to a
// CHW tensor (valid padding).
func AvgPool2D(input *Tensor, window, stride int) *Tensor {
	out := SumPool2D(input, window, stride)
	inv := 1.0 / float64(window*window)
	for i, v := range out.Data {
		out.Data[i] = v * inv
	}
	return out
}

// SumPool2D sums every window of a CHW tensor (valid padding): average
// pooling without its division by the window size.
func SumPool2D(input *Tensor, window, stride int) *Tensor {
	if input.Rank() != 3 {
		panic(fmt.Sprintf("tensor: pooling input must be CHW, got %v", input.Shape))
	}
	c, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	hout := (h-window)/stride + 1
	wout := (w-window)/stride + 1
	if hout <= 0 || wout <= 0 {
		panic("tensor: pooling output would be empty")
	}
	out := New(c, hout, wout)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				acc := 0.0
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						acc += input.At(ic, oy*stride+ky, ox*stride+kx)
					}
				}
				out.Set(acc, ic, oy, ox)
			}
		}
	}
	return out
}

// GlobalAvgPool2D averages each channel of a CHW tensor to a single value.
func GlobalAvgPool2D(input *Tensor) *Tensor {
	if input.Rank() != 3 {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2D input must be CHW, got %v", input.Shape))
	}
	c, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	inv := 1.0 / float64(h*w)
	out := New(c)
	for ic := 0; ic < c; ic++ {
		acc := 0.0
		for i := 0; i < h*w; i++ {
			acc += input.Data[ic*h*w+i]
		}
		out.Data[ic] = acc * inv
	}
	return out
}

// PolyActivation applies the HE-compatible learnable activation
// f(x) = a*x^2 + b*x elementwise (the paper's replacement for ReLU).
func PolyActivation(input *Tensor, a, b float64) *Tensor {
	out := input.Clone()
	for i, v := range out.Data {
		out.Data[i] = a*v*v + b*v
	}
	return out
}

// AddBiasPerChannel adds bias[c] to every element of channel c of a CHW
// tensor.
func AddBiasPerChannel(input, bias *Tensor) *Tensor {
	if input.Rank() != 3 || bias.Size() != input.Shape[0] {
		panic("tensor: AddBiasPerChannel shape mismatch")
	}
	out := input.Clone()
	hw := input.Shape[1] * input.Shape[2]
	for c := 0; c < input.Shape[0]; c++ {
		b := bias.Data[c]
		for i := 0; i < hw; i++ {
			out.Data[c*hw+i] += b
		}
	}
	return out
}

// BatchNorm applies per-channel affine normalization y = g[c]*x + h[c]
// (inference-time batch normalization folded into scale and shift).
func BatchNorm(input, gamma, beta *Tensor) *Tensor {
	if input.Rank() != 3 || gamma.Size() != input.Shape[0] || beta.Size() != input.Shape[0] {
		panic("tensor: BatchNorm shape mismatch")
	}
	out := input.Clone()
	hw := input.Shape[1] * input.Shape[2]
	for c := 0; c < input.Shape[0]; c++ {
		g, b := gamma.Data[c], beta.Data[c]
		for i := 0; i < hw; i++ {
			out.Data[c*hw+i] = g*out.Data[c*hw+i] + b
		}
	}
	return out
}

// Add returns the elementwise sum of equal-shaped tensors.
func Add(a, b *Tensor) *Tensor {
	if a.Size() != b.Size() {
		panic("tensor: Add size mismatch")
	}
	out := a.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// ConcatChannels concatenates CHW tensors along the channel axis; all inputs
// must share H and W.
func ConcatChannels(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatChannels needs at least one input")
	}
	h, w := ts[0].Shape[1], ts[0].Shape[2]
	totalC := 0
	for _, t := range ts {
		if t.Rank() != 3 || t.Shape[1] != h || t.Shape[2] != w {
			panic("tensor: ConcatChannels shape mismatch")
		}
		totalC += t.Shape[0]
	}
	out := New(totalC, h, w)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += t.Size()
	}
	return out
}

// Pad2D zero-pads a CHW tensor symmetrically by pad on each spatial side.
func Pad2D(input *Tensor, pad int) *Tensor {
	if input.Rank() != 3 {
		panic("tensor: Pad2D input must be CHW")
	}
	c, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	out := New(c, h+2*pad, w+2*pad)
	for ic := 0; ic < c; ic++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				out.Set(input.At(ic, y, x), ic, y+pad, x+pad)
			}
		}
	}
	return out
}

// FLOP counters used by the Table 3 reproduction.

// Conv2DFlops counts multiply-add operations (as 2 FLOPs each) of a conv.
func Conv2DFlops(cin, h, w, cout, kh, kw, stride, pad int) int64 {
	hout := (h+2*pad-kh)/stride + 1
	wout := (w+2*pad-kw)/stride + 1
	return 2 * int64(cout) * int64(hout) * int64(wout) * int64(cin) * int64(kh) * int64(kw)
}

// MatVecFlops counts FLOPs of a dense layer.
func MatVecFlops(in, out int) int64 { return 2 * int64(in) * int64(out) }

// PolyActivationFlops counts FLOPs of the square activation (x*x, *a, *b,
// add = 4 per element).
func PolyActivationFlops(elems int) int64 { return 4 * int64(elems) }

// AvgPool2DFlops counts FLOPs of average pooling.
func AvgPool2DFlops(c, h, w, window, stride int) int64 {
	hout := (h-window)/stride + 1
	wout := (w-window)/stride + 1
	return int64(c) * int64(hout) * int64(wout) * int64(window*window+1)
}
