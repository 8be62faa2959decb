"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a C-contiguous ``numpy`` float64 array, so ``values``
is always a flat row-major buffer of length ``prod(shape)``.  Operations build
an expression DAG; ``backward()`` linearizes it into a :class:`Tape` (inputs
strictly before outputs) and replays the recorded backward rules in reverse.
Forward functions never mutate their inputs; ``reshape``/``transpose`` copy.
Affine maps and convolutions take their bias inside the op (:func:`affine`,
``conv2d(bias=)``), so a bias costs no graph node of its own.

:func:`conv3x3_upsampled` is the segmentation heads' 3x3 conv over a channel
merge of maps at several resolutions.  It runs at each map's own resolution
and places the nine taps with cached 0/1 shift-and-upsample matrices, so the
nearest-upsampled copies, their concat and the im2col buffer never exist.

Multi-head attention is one op, :func:`attention`: the head split, scaled
scores, the (masked) softmax that :func:`masked_softmax` writes out and the
head merge run inside it.  Its softmax shift is the Cauchy-Schwarz bound
|q| max|k| per row and head, which needs no pass over the scores and rides as
the augmented column of one score GEMM over all L keys; a row whose kept
weights that bound would underflow (row sum below 1e-200) is redone with its
exact kept-key max.  The per-head key and value operands are laid out along
the keys, (h, D/h + 1, L), and the scores as one (h, L, N) buffer with the
weighted keys (keep != 0) first.  The zero-keep keys add nothing to the
output and get only their scores, an exp and their share of one GEMM, for the
keep gradient.  That h*L*N buffer, whatever the split, is all the
closed-form backward keeps of the scores, and the backward overwrites it
with the score gradient, so an op's backward runs once.  The normalised
weights are never formed.

Everything runs in float64 on purpose: the test suite leans on central finite
differences, which need the precision far more than this code needs speed.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor",
    "Tape",
    "DimensionError",
    "ConfigurationError",
    "no_grad",
    "matmul",
    "affine",
    "concat",
    "gather_rows",
    "slice_axis",
    "straight_through",
    "conv2d",
    "conv3x3_upsampled",
    "upsample_nearest",
    "downsample_nearest",
    "cross_entropy",
    "masked_softmax",
    "attention",
    "glorot_uniform",
    "zeros_param",
]

_SQRT_HALF = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ConfigurationError(ValueError):
    """A size, factor, ratio or flag violates an operation's precondition."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; intermediate tensors become free-standing."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense N-dimensional float64 value with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False):
        # always copy: the payload must never alias caller-owned memory
        self.data = np.array(data, dtype=np.float64, order="C")
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.op = ""

    # -- contract views -----------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def values(self) -> np.ndarray:
        """Flat row-major view of the payload."""
        return self.data.reshape(-1)

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{tag}, op={self.op!r})"

    # -- autodiff ------------------------------------------------------------
    def backward(self) -> None:
        """Reverse-accumulate d(self)/d(leaf) for every reachable leaf."""
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar loss, got shape {self.shape}")
        tape = Tape.from_root(self)
        self.grad = np.ones_like(self.data)
        for t in reversed(tape.ops):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g)  # copy: g may be a view the caller reuses
        else:
            self.grad += g

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(_as_tensor(other), scale(self, -1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: float):
        return scale(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops -------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            out_data = self.data.reshape(shape).copy()
        except ValueError:
            raise DimensionError(f"cannot reshape {self.shape} to {tuple(shape)}") from None
        src_shape = self.shape

        def backward(g, a=self):
            a.accumulate_grad(g.reshape(src_shape))

        return _result(out_data, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)

        def backward(g, a=self):
            a.accumulate_grad(np.ascontiguousarray(g.transpose(inv)))

        return _result(np.ascontiguousarray(self.data.transpose(axes)), (self,), backward, "transpose")

    # -- reductions --------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g, a=self, axis=axis, keepdims=keepdims):
            a.accumulate_grad(_spread(g, a.data.shape, axis, keepdims))

        return _result(np.asarray(out_data), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        count = self.data.size if axis is None else int(np.prod([self.data.shape[a] for a in _axis_tuple(axis, self.data.ndim)]))

        def backward(g, a=self, axis=axis, keepdims=keepdims, count=count):
            a.accumulate_grad(_spread(g, a.data.shape, axis, keepdims) / count)

        return _result(np.asarray(out_data), (self,), backward, "mean")

    # -- pointwise ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g, a=self, y=out_data):
            a.accumulate_grad(g * y)

        return _result(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g, a=self):
            a.accumulate_grad(g / a.data)

        return _result(out_data, (self,), backward, "log")

    def gelu(self) -> "Tensor":
        # exact erf form; derivative = Phi(x) + x * phi(x)
        x = self.data
        cdf = 0.5 * (1.0 + erf(x * _SQRT_HALF))
        out_data = x * cdf

        def backward(g, a=self, cdf=cdf):
            x = a.data
            a.accumulate_grad(g * (cdf + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI))

        return _result(out_data, (self,), backward, "gelu")

    def softmax(self, axis: int) -> "Tensor":
        if not -self.data.ndim <= axis < self.data.ndim:
            raise DimensionError(f"softmax axis {axis} invalid for shape {self.shape}")
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def backward(g, a=self, y=y, axis=axis):
            a.accumulate_grad(y * (g - (g * y).sum(axis=axis, keepdims=True)))

        return _result(y, (self,), backward, "softmax")


# -- construction helpers ------------------------------------------------------


def _fresh(data: np.ndarray) -> Tensor:
    """Wrap an array the caller just allocated, without re-copying."""
    t = Tensor.__new__(Tensor)
    t.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    t.grad = None
    t.requires_grad = False
    t._parents = ()
    t._backward = None
    t.op = ""
    return t


def _result(data: np.ndarray, parents: tuple, backward, op: str) -> Tensor:
    out = _fresh(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out.op = op
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else _fresh(np.asarray(x, dtype=np.float64))


def _axis_tuple(axis, ndim) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def _spread(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back over the reduced axes."""
    if axis is None:
        return np.broadcast_to(np.reshape(g, (1,) * len(shape)), shape).copy()
    if not keepdims:
        g = np.expand_dims(g, _axis_tuple(axis, len(shape)))
    return np.broadcast_to(g, shape).copy()


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def glorot_uniform(rng: np.random.Generator, shape: Sequence[int], fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    t = _fresh(rng.uniform(-limit, limit, size=tuple(shape)))
    t.requires_grad = True
    return t


def zeros_param(shape: Sequence[int]) -> Tensor:
    t = _fresh(np.zeros(tuple(shape)))
    t.requires_grad = True
    return t


# -- binary elementwise ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g, a=a, b=b):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return _result(out_data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g, a=a, b=b):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), backward, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g, a=a, c=c):
        a.accumulate_grad(g * c)

    return _result(a.data * c, (a,), backward, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul: unsupported ranks for {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims disagree for {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g, a=a, b=b):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _result(out_data, (a, b), backward, "matmul")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[N,I] w[I,O] + b[O] as one op; db is the column sum of the gradient."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.shape != (w.shape[1],):
        raise DimensionError(f"affine: need x[N,I], w[I,O], b[O]; got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"affine: inner dims disagree for {x.shape} x {w.shape}")
    out_data = x.data @ w.data
    out_data += b.data

    def backward(g, x=x, w=w, b=b):
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ g)

    return _result(out_data, (x, w, b), backward, "affine")


# -- structural ops ------------------------------------------------------------------


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise DimensionError("concat of zero tensors")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g, parts=parts, splits=splits, axis=axis):
        for p, gp in zip(parts, np.split(g, splits, axis=axis)):
            if p.requires_grad:
                p.accumulate_grad(gp)

    return _result(out_data, parts, backward, "concat")


def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; backward scatter-adds (repeats allowed)."""
    if x.data.ndim != 2:
        raise DimensionError(f"gather_rows expects a 2-D tensor, got {x.shape}")
    idx = np.asarray(indices, dtype=np.int64).copy()
    out_data = x.data[idx].copy()

    def backward(g, x=x, idx=idx):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        x.accumulate_grad(buf)

    return _result(out_data, (x,), backward, "gather_rows")


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % x.data.ndim
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out_data = x.data[sl].copy()

    def backward(g, x=x, sl=sl):
        buf = np.zeros_like(x.data)
        buf[sl] = g
        x.accumulate_grad(buf)

    return _result(out_data, (x,), backward, "slice")


def straight_through(hard: np.ndarray, soft: Tensor) -> Tensor:
    """Forward the hard values exactly; route gradient to the soft relaxation."""
    hard = np.asarray(hard, dtype=np.float64)
    if hard.shape != soft.shape:
        raise DimensionError(f"straight_through: hard {hard.shape} vs soft {soft.shape}")

    def backward(g, soft=soft):
        soft.accumulate_grad(g)

    return _result(hard.copy(), (soft,), backward, "straight_through")


# -- spatial ops -------------------------------------------------------------------------


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0, bias: Optional[Tensor] = None) -> Tensor:
    """Cross-correlation of x[C,H,W] with w[O,C,k,k], zero padding, plus an optional bias[O].

    Output size must be exact: (H + 2*pad - k) divisible by stride.
    """
    if x.data.ndim != 3 or w.data.ndim != 4:
        raise DimensionError(f"conv2d: need x[C,H,W], w[O,C,k,k]; got {x.shape}, {w.shape}")
    C, H, W = x.shape
    O, Ci, kh, kw = w.shape
    if Ci != C or kh != kw:
        raise DimensionError(f"conv2d: weight {w.shape} incompatible with input {x.shape}")
    if bias is not None and bias.shape != (O,):
        raise DimensionError(f"conv2d: bias {bias.shape} vs {O} output channels")
    k = kh
    if k not in (1, 2, 3, 4):
        raise ConfigurationError(f"conv2d: kernel size {k} unsupported")
    if stride < 1 or pad < 0:
        raise ConfigurationError(f"conv2d: bad stride/pad ({stride}, {pad})")
    if (H + 2 * pad - k) % stride or (W + 2 * pad - k) % stride:
        raise ConfigurationError(
            f"conv2d: non-integral output for input {H}x{W}, k={k}, stride={stride}, pad={pad}"
        )
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1

    if pad:
        xp = np.zeros((C, H + 2 * pad, W + 2 * pad))
        xp[:, pad : pad + H, pad : pad + W] = x.data
    else:
        xp = x.data
    cols = np.empty((C, k, k, Ho, Wo))
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i : i + stride * Ho : stride, j : j + stride * Wo : stride]
    cols2 = cols.reshape(C * k * k, Ho * Wo)
    out_data = (w.data.reshape(O, -1) @ cols2).reshape(O, Ho, Wo)
    if bias is not None:
        out_data += bias.data[:, None, None]

    def backward(g, x=x, w=w, cols2=cols2, k=k, stride=stride, pad=pad, Ho=Ho, Wo=Wo):
        C, H, W = x.shape
        O = w.shape[0]
        if bias is not None and bias.requires_grad:
            # sum over rows, then columns: the order a broadcast add's backward uses
            bias.accumulate_grad(_unbroadcast(g, (O, 1, 1)).reshape(O))
        g2 = g.reshape(O, -1)
        if w.requires_grad:
            w.accumulate_grad((g2 @ cols2.T).reshape(w.shape))
        if x.requires_grad:
            dcols = (w.data.reshape(O, -1).T @ g2).reshape(C, k, k, Ho, Wo)
            dxp = np.zeros((C, H + 2 * pad, W + 2 * pad))
            for i in range(k):
                for j in range(k):
                    dxp[:, i : i + stride * Ho : stride, j : j + stride * Wo : stride] += dcols[:, i, j]
            x.accumulate_grad(dxp[:, pad : pad + H, pad : pad + W])

    parents = (x, w) if bias is None else (x, w, bias)
    return _result(out_data, parents, backward, "conv2d")


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each pixel factor x factor; backward sums the replicas."""
    if x.data.ndim != 3:
        raise DimensionError(f"upsample_nearest expects [C,H,W], got {x.shape}")
    if factor < 1:
        raise ConfigurationError(f"upsample_nearest: factor {factor} < 1")
    out_data = x.data.repeat(factor, axis=1).repeat(factor, axis=2)

    def backward(g, x=x, f=factor):
        C, H, W = x.shape
        x.accumulate_grad(g.reshape(C, H, f, W, f).sum(axis=(2, 4)))

    return _result(out_data, (x,), backward, "upsample_nearest")


def downsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Keep the top-left pixel of each factor x factor block."""
    if x.data.ndim != 3:
        raise DimensionError(f"downsample_nearest expects [C,H,W], got {x.shape}")
    if factor < 1:
        raise ConfigurationError(f"downsample_nearest: factor {factor} < 1")
    C, H, W = x.shape
    if H % factor or W % factor:
        raise ConfigurationError(f"downsample_nearest: {H}x{W} not divisible by {factor}")
    out_data = x.data[:, ::factor, ::factor].copy()

    def backward(g, x=x, f=factor):
        buf = np.zeros_like(x.data)
        buf[:, ::f, ::f] = g
        x.accumulate_grad(buf)

    return _result(out_data, (x,), backward, "downsample_nearest")


@functools.lru_cache(maxsize=32)
def _tap_rows(n: int, factor: int) -> np.ndarray:
    """Read-only 0/1 matrix A[Y, (i, y)], shape (n * factor, 3n), cached per (n, factor).

    A[Y, (i, y)] = 1 where tap row i of output row Y reads low-resolution row
    y: 0 <= Y + i - 1 < n * factor and (Y + i - 1) // factor == y.  So
    A @ [R_0; R_1; R_2] shifts and upsamples a stack of three tap rows at once.
    """
    big = n * factor
    a = np.zeros((big, 3, n))
    for i in range(3):
        src = np.arange(i - 1, big + i - 1)
        inside = (src >= 0) & (src < big)
        a[inside.nonzero()[0], i, src[inside] // factor] = 1.0
    a = a.reshape(big, 3 * n)
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=32)
def _tap_cols(n: int, factor: int) -> np.ndarray:
    """The column form of `_tap_rows`: B[x, (j, X)] = A[X, (j, x)], shape (n, 3 * n * factor)."""
    a = _tap_rows(n, factor)
    b = np.ascontiguousarray(a.reshape(-1, 3, n).transpose(2, 1, 0).reshape(n, -1))
    b.flags.writeable = False
    return b


def conv3x3_upsampled(parts: Sequence[Tensor], factors: Sequence[int], w: Tensor, bias: Tensor) -> Tensor:
    """3x3 conv (stride 1, pad 1) of w[O, sum C_g, 3, 3] over the channel concat of
    upsample_nearest(parts[g], factors[g]), plus bias[O], without forming that concat.

    With A (H x 3h_g) and B (w_g x 3W) the cached 0/1 matrices that shift and
    upsample a part's three tap rows and tap columns (`_tap_rows`,
    `_tap_cols`), part g adds A (w_g (part_g B)) to each output channel:
    part_g B places the tap columns, one GEMM of w_g (3O x 3C_g, rows (o, i),
    columns (c, j)) over it gives rows (o, i) by columns (y, X), and A places
    the tap rows.  The backward runs the adjoints, so dW and d(part) are GEMMs
    too, with no col2im.  No upsampled copy, concat or im2col buffer exists;
    the largest temporary has 3 max(O, C_g) h_g W floats.  One GEMM of all
    nine taps at the part's resolution, (9O x C_g) @ (C_g x h_g w_g), would
    do fewer MACs, but its 9O h_g w_g tap array and the relaid copy the
    placements need cost more: in a process that has not trained, the C
    allocator then returns and re-faults ~1.5 MB of heap per inference scene.
    `conv2d(concat([upsample_nearest(...)]), pad=1, bias=)` is the
    written-out rule.
    """
    parts, factors = tuple(parts), tuple(int(f) for f in factors)
    if not parts or len(parts) != len(factors):
        raise DimensionError(f"conv3x3_upsampled: {len(parts)} parts vs {len(factors)} factors")
    if min(factors) < 1:
        raise ConfigurationError(f"conv3x3_upsampled: factors {factors} must be >= 1")
    if any(p.data.ndim != 3 for p in parts) or w.data.ndim != 4 or w.shape[2:] != (3, 3):
        raise DimensionError(f"conv3x3_upsampled: need parts [C,h,w] and w[O,C,3,3]; got "
                             f"{[p.shape for p in parts]}, {w.shape}")
    sizes = {(p.shape[1] * f, p.shape[2] * f) for p, f in zip(parts, factors)}
    if len(sizes) != 1:
        raise DimensionError(f"conv3x3_upsampled: parts {[p.shape for p in parts]} upsampled by "
                             f"{factors} disagree in size")
    (H, W), = sizes
    O = w.shape[0]
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])
    if w.shape[1] != offsets[-1]:
        raise DimensionError(f"conv3x3_upsampled: weight {w.shape} vs {offsets[-1]} input channels")
    if bias.shape != (O,):
        raise DimensionError(f"conv3x3_upsampled: bias {bias.shape} vs {O} output channels")

    # weight rows (o, i), columns (c, j): tap row i, input channel c, tap column j
    wr = w.data.transpose(0, 2, 1, 3).reshape(3 * O, -1)

    def columns_placed(p, f):  # part (C, h, w) -> (C * 3, h * W), rows (c, j), columns (y, X)
        c, h, wd = p.shape
        pc = p.data.reshape(c * h, wd) @ _tap_cols(wd, f)
        return pc.reshape(c, h, 3, W).transpose(0, 2, 1, 3).reshape(3 * c, h * W)

    out_data = np.zeros((O, H, W))
    for p, f, lo, hi in zip(parts, factors, offsets, offsets[1:]):
        h = p.shape[1]
        r = wr[:, 3 * lo : 3 * hi] @ columns_placed(p, f)  # rows (o, i), columns (y, X)
        out_data += np.matmul(_tap_rows(h, f), r.reshape(O, 3 * h, W))
    out_data += bias.data[:, None, None]

    def backward(g, parts=parts, factors=factors, w=w, bias=bias, wr=wr):
        if bias.requires_grad:
            # sum over rows, then columns: the order a broadcast add's backward uses
            bias.accumulate_grad(_unbroadcast(g, (O, 1, 1)).reshape(O))
        dwr = np.empty_like(wr) if w.requires_grad else None  # every part fills its columns
        for p, f, lo, hi in zip(parts, factors, offsets, offsets[1:]):
            if not (p.requires_grad or w.requires_grad):
                continue
            c, h, wd = p.shape
            dr = np.matmul(_tap_rows(h, f).T, g).reshape(3 * O, h * W)
            if w.requires_grad:
                dwr[:, 3 * lo : 3 * hi] = dr @ columns_placed(p, f).T
            if p.requires_grad:
                dpc = (wr[:, 3 * lo : 3 * hi].T @ dr).reshape(c, 3, h, W).transpose(0, 2, 1, 3)
                p.accumulate_grad((dpc.reshape(c * h, 3 * W) @ _tap_cols(wd, f).T).reshape(p.shape))
        if w.requires_grad:
            w.accumulate_grad(np.ascontiguousarray(dwr.reshape(O, 3, -1, 3).transpose(0, 2, 1, 3)))

    return _result(out_data, (*parts, w, bias), backward, "conv3x3_upsampled")


def cross_entropy(logits: Tensor, labels: np.ndarray, ignore_index: int = 255) -> Tensor:
    """Mean pixel-wise negative log-softmax over non-ignored pixels.

    logits is [K,H,W]; labels an int map [H,W] with entries in [0,K) or equal
    to ignore_index.  All pixels ignored -> loss 0 with zero gradient.
    """
    if logits.data.ndim != 3:
        raise DimensionError(f"cross_entropy expects logits [K,H,W], got {logits.shape}")
    K, H, W = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (H, W):
        raise DimensionError(f"cross_entropy: labels {labels.shape} vs logits {logits.shape}")
    valid = labels != ignore_index
    lab = np.where(valid, labels, 0).astype(np.int64)
    if lab.min() < 0 or lab.max() >= K:
        raise ConfigurationError("cross_entropy: label outside [0, K)")
    n_valid = int(valid.sum())

    shifted = logits.data - logits.data.max(axis=0, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=0, keepdims=True))
    if n_valid == 0:
        picked = 0.0
    else:
        picked = -logp[lab, np.arange(H)[:, None], np.arange(W)[None, :]][valid].mean()
    out_data = np.asarray(picked)

    def backward(g, logits=logits, logp=logp, lab=lab, valid=valid, n_valid=n_valid):
        if n_valid == 0:
            return
        K, H, W = logits.shape
        d = np.exp(logp)
        d[lab, np.arange(H)[:, None], np.arange(W)[None, :]] -= 1.0
        d *= valid / n_valid
        logits.accumulate_grad(d * g)

    return _result(out_data, (logits,), backward, "cross_entropy")


# -- attention ------------------------------------------------------------------------------


def masked_softmax(s: np.ndarray, keep: Optional[np.ndarray] = None, literal: bool = False) -> np.ndarray:
    """Normalise score rows s[..., L] over the kept keys, in place; returns R.

    R = exp(s - shift) / S over all L keys, with the shift the row max over
    kept keys (keep > 0) and S the keep-weighted row sum.  The weights
    P = R * keep, exactly zero at keys with keep <= 0 and on every row when
    no key is kept, are left to the caller (`attention` applies keep to its
    values and keys instead).  `literal` (eq. 5 as written) uses no shift and
    S = keep.sum(), so rows need not sum to 1.  S gets +1 when no key is
    kept.  keep=None keeps every key: a plain row softmax, with R = P, or
    exp(s) / L under `literal`.
    """
    if keep is None:
        if not literal:
            s -= s.max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= s.shape[-1] if literal else s.sum(axis=-1, keepdims=True)
        return s
    kept = keep > 0
    dead = float(not kept.any())
    if literal:
        np.exp(s, out=s)
        s /= keep.sum() + dead
    else:
        if not dead:
            # numpy has no fast path for a max with where=; the gathered
            # columns give the same (exact) max several times faster
            s -= s[..., kept].max(axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= (s @ keep)[..., None] + dead
    return s


# A row whose keep-weighted sum S falls below this under the bound shift c is
# redone with its exact kept-key max: c then overshoots that max by hundreds,
# and exp(s - c) would lose the row's weights to underflow.
_REDO_BELOW = 1e-200


def attention(q: Tensor, k: Tensor, v: Tensor, keep: Optional[Tensor], heads: int,
              literal: bool = False) -> Tensor:
    """Multi-head attention of q[N,D] over k, v [L,D] as one op; scores scaled by 1/sqrt(D/heads).

    `keep` is the length-L key weight shared by all heads and rows (the
    scale's decisions), or None when every key is kept.  The op computes
    out = (R * keep) v with R as `masked_softmax` writes it out, without
    forming R.  Any shift at or above a row's max gives the same R, so the
    shift is a bound that needs no pass over the scores: by Cauchy-Schwarz no
    score of (scaled) query row i in head h exceeds c_ih = |q_ih| max_l |k_lh|.
    It rides as the augmented column of one score GEMM over all L keys,
    E = exp([q | -c] [k | 1]^T), so no entry of E exceeds 1.  E [keep v | keep]
    gives the unnormalised output and the row sum S in one GEMM, and only
    that N x D output is divided by S (+1 when no key is kept).  Where c
    overshoots a row's kept max by hundreds, S falls below 1e-200 and the
    row's kept weights may have underflowed, so that row is redone with the
    exact kept-key max as its shift, as `masked_softmax` computes it (its
    zero-keep E may then exceed 1, as R does there).  So results equal
    `masked_softmax`'s up to rounding.  Under `literal` there is no shift and
    S = keep.sum() (+1 when no key is kept); with no kept key there is no
    shift either.

    Layout: the per-head operands [k | 1] and [keep v | keep] are built once
    per call as (h, D/h + 1, L) arrays with L as the contiguous axis, and the
    scores as one (h, L, N) buffer.  The keys are ordered with the K weighted
    ones (keep != 0; all L when keep is None) first, so E_K, the block the
    output and the score gradient need, is contiguous per head; the L - K
    zero-keep keys add nothing to the output but the keep gradient needs
    their E.

    Backward, with g' = g / S and rs' = rowsum / S (0 under `literal`),
    where rowsum = sum_l dP P = g . out per head (FlashAttention's identity):
    one product U = E^T [g' | -rs'] over all L keys gives dv = keep U[:, :D/h]
    and d keep = sum_h (v . U[:, :D/h] + U[:, D/h]), less sum(rowsum) / S
    under `literal`.  Then dS_K = ([g' | -rs'] [keep v | keep]_K^T) * E_K,
    on the weighted keys only, is written over E_K head by head (an N x L
    scratch is the only other score-sized array), and gives
    dq = scale dS_K k_K and dk_K = dS_K^T q_scaled.  Zero-keep rows of dk
    and dv are exactly 0.  A second backward over the same graph raises
    RuntimeError.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape or k.shape[1] != q.shape[1]:
        raise DimensionError(f"attention: need q[N,D], k[L,D], v[L,D]; got {q.shape}, {k.shape}, {v.shape}")
    n, d = q.shape
    if heads < 1 or d % heads:
        raise ConfigurationError(f"attention: D={d} not divisible into {heads} heads")
    n_keys = k.shape[0]
    if keep is not None and keep.shape != (n_keys,):
        raise DimensionError(f"attention: keep {keep.shape} vs {n_keys} keys")
    hd = d // heads
    scale = 1.0 / np.sqrt(hd)
    m = np.ones(n_keys) if keep is None else keep.data
    weighted = m != 0
    n_w = int(np.count_nonzero(weighted))
    # keys in weighted-first order; keep None or all nonzero needs no gather
    order = slice(None) if n_w == n_keys else np.argsort(~weighted, kind="stable")
    mo = m[order]
    kept = mo > 0
    dead = float(not kept.any())
    shifted = not (literal or dead)

    def along_keys(x):  # (L, D) -> (h, D/h + 1, L) in key order, augmented row 1
        out = np.empty((heads, hd + 1, n_keys))
        out[:, :hd] = x[order].T.reshape(heads, hd, n_keys)
        out[:, hd] = 1.0
        return out

    def to_keys(x):  # (L, h, D/h) in key order -> (L, D) in the caller's order
        out = np.empty((n_keys, heads, hd))
        out[order] = x
        return out.reshape(n_keys, d)

    ka = along_keys(k.data)  # [k | 1]
    va = along_keys(v.data)  # [keep v | keep]
    if keep is not None:
        va *= mo
    qa = np.empty((heads, hd + 1, n))  # [q scale | -c], laid out along the rows
    np.multiply(q.data.T.reshape(heads, hd, n), scale, out=qa[:, :hd])
    if shifted:
        k_max = np.sqrt(np.einsum("hcl,hcl->hl", ka[:, :hd], ka[:, :hd]).max(axis=1))
        np.multiply(np.sqrt(np.einsum("hcn,hcn->hn", qa[:, :hd], qa[:, :hd])), -k_max[:, None],
                    out=qa[:, hd])
    else:
        qa[:, hd] = 0.0
    e = np.empty((heads, n_keys, n))
    np.matmul(ka.transpose(0, 2, 1), qa, out=e)
    np.exp(e, out=e)
    unnorm = va[:, :, :n_w] @ e[:, :n_w]  # (h, D/h + 1, N): [E_K (keep v) | S]
    if shifted and unnorm[:, hd].min() < _REDO_BELOW:
        hs, rows = np.nonzero(unnorm[:, hd] < _REDO_BELOW)
        s_rows = np.einsum("rc,rcl->rl", qa[hs, :hd, rows], ka[hs, :hd])
        s_rows -= s_rows[:, kept].max(axis=1, keepdims=True)
        np.exp(s_rows, out=s_rows)
        e[hs, :, rows] = s_rows
        unnorm[hs, :, rows] = np.einsum("rl,rcl->rc", s_rows[:, :n_w], va[hs, :, :n_w])
    s = m.sum() + dead if literal else unnorm[:, hd:] + dead
    out_t = unnorm[:, :hd] / s  # (h, D/h, N)
    out_data = out_t.transpose(2, 0, 1).reshape(n, d)
    spent = False  # backward overwrites E_K with the score gradient

    def backward(g):
        nonlocal spent
        if spent:
            raise RuntimeError("attention: backward ran twice on one graph; its saved scores are spent")
        gt = g.T.reshape(heads, hd, n)
        rowsum = np.einsum("hcn,hcn->hn", gt, out_t)[:, None]
        gs = np.empty((heads, hd + 1, n))  # [g' | -rs'], laid out along the rows
        np.divide(gt, s, out=gs[:, :hd])
        if literal:
            gs[:, hd] = 0.0
        else:
            np.divide(rowsum, -s, out=gs[:, hd:])
        if v.requires_grad or keep is not None and keep.requires_grad:
            # BLAS runs E [g' | -rs'] about twice as fast with the right
            # operand row-major (N, D/h + 1) as with its transpose
            u = e @ np.ascontiguousarray(gs.transpose(0, 2, 1))  # (h, L, D/h + 1)
            uv = to_keys(u[..., :hd].transpose(1, 0, 2))
            if v.requires_grad:
                v.accumulate_grad(uv * m[:, None])
            if keep is not None and keep.requires_grad:
                dkeep = np.einsum("ld,ld->l", v.data, uv)
                dkeep[order] += u[..., hd].sum(axis=0)
                if literal:
                    dkeep -= rowsum.sum() / s
                keep.accumulate_grad(dkeep)
        if q.requires_grad or k.requires_grad:
            # the score gradient overwrites E_K head by head, through an N*L
            # scratch; it and dk are sized by L, so the peak does not depend on K
            spent = True
            scratch = np.empty(n * n_keys)[: n * n_w].reshape(n_w, n)
            for i in range(heads):
                np.matmul(va[i, :, :n_w].T, gs[i], out=scratch)
                e[i, :n_w] *= scratch
            ds = e[:, :n_w]
            if q.requires_grad:
                dq = ka[:, :hd, :n_w] @ ds
                dq *= scale
                q.accumulate_grad(dq.transpose(2, 0, 1).reshape(n, d))
            if k.requires_grad:
                dk = np.zeros((heads, hd, n_keys))
                np.matmul(qa[:, :hd], ds.transpose(0, 2, 1), out=dk[..., :n_w])
                k.accumulate_grad(to_keys(dk.transpose(2, 0, 1)))

    parents = (q, k, v) if keep is None else (q, k, v, keep)
    return _result(out_data, parents, backward, "attention")


# -- tape introspection ---------------------------------------------------------------


class Tape:
    """Topologically ordered operation list for one expression DAG."""

    def __init__(self, ops: list):
        self.ops = ops

    @classmethod
    def from_root(cls, root: Tensor) -> "Tape":
        order: list = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        return cls(order)

    def leaves(self) -> list:
        return [t for t in self.ops if not t._parents and t.requires_grad]
