"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a :class:`Tensor` wrapping a numpy
array. Each operation's output lists ``(parent, gradient)`` edges; ``backward()``
on a scalar replays that graph in reverse topological order and accumulates
adjoints into leaf ``grad`` buffers. Gradients add across multiple uses of
the same tensor, which is what the weight-shared encoders rely on.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DegenerateInputError, DimensionError, NumericError

_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Additive logit bias for disallowed attention keys. Finite (so the
# NaN/Inf guard stays active) but large enough that exp underflows to 0.
NEG_MASK_BIAS = -1e30
LN_EPS = 1e-5  # added to the layer-norm variance
# Bytes of float64 scores that one attention node may hold at once. A
# desk-sized node is one tile; a 513-token image node is several, and the
# tiles in flight on the workers share the budget. Node timings were the same
# from one to four 513-token slices per tile.
ATTENTION_TILE_BYTES = 8 << 20


def _pin_blas_threads() -> int | None:
    """Hold the OpenBLAS that numpy bundles at one thread for the whole
    process, and return that count; None when no setter is found.

    The thread count changes the bits of some GEMMs, and threaded BLAS
    beside the tile workers oversubscribes the cores. The pin must last:
    after a threaded GEMM OpenBLAS's own worker spins and takes a core from
    them. (``openblas_set_num_threads_local`` is not thread-local in this
    build, so it is not used.)"""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        setter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return 1
    return None


BLAS_THREADS = _pin_blas_threads()
# Threads that run the tiles of one attention node: one per CPU this process
# may use. Unpinned BLAS keeps threads of its own, and a pool beside them is
# slower than none, so then the tiles run in the caller.
TILE_WORKERS = len(os.sched_getaffinity(0)) if BLAS_THREADS == 1 else 1


@functools.cache
def _tile_pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="attention-tile")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_tile_pool.cache_clear)


def _each_tile(body: Callable[[slice], None], tiles: list[slice]) -> None:
    """Call ``body(t)`` for every tile, on the tile workers when there are
    several of them and of the tiles, else in the caller. The first error a
    tile raises comes out here; tiles not yet started are then cancelled."""
    run = map if TILE_WORKERS == 1 or len(tiles) == 1 else _tile_pool(TILE_WORKERS).map
    for _ in run(body, tiles):
        pass


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class RngStream:
    """Seeded, platform-stable random stream (PCG64 under the hood).

    ``child(tag)`` derives an independent stream deterministically from the
    parent seed, so per-step / per-purpose streams never need serialized
    generator state: they are recomputed from (seed, tag).
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: int) -> "RngStream":
        return RngStream(_splitmix64(self.seed ^ _splitmix64(tag & 0xFFFFFFFFFFFFFFFF)))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def truncated_normal(self, shape, std: float = 0.02) -> np.ndarray:
        # resample values outside 2 std, the usual transformer init
        out = self._gen.normal(0.0, std, size=shape)
        bad = np.abs(out) > 2.0 * std
        while bad.any():
            out[bad] = self._gen.normal(0.0, std, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * std
        return out

    def uniform(self, low: float, high: float, shape=None):
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, seq):
        return seq[int(self._gen.choice(len(seq)))]


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.ndim > len(shape):
        grad = grad.sum(axis=tuple(range(grad.ndim - len(shape))))
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._prev: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"],
                backward: Callable[[np.ndarray], None]) -> "Tensor":
        if not np.isfinite(data).all():
            raise NumericError("operation produced non-finite values")
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        needs = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out.requires_grad = needs
        if needs:
            out._prev = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        else:
            out._prev = ()
            out._backward = None
        return out

    @staticmethod
    def _node(data: np.ndarray,
              *edges: tuple["Tensor", Callable[[np.ndarray], np.ndarray]]) -> "Tensor":
        """An op's output from its ``(parent, grad)`` edges: the backward adds
        ``grad(g)`` into each parent that requires grad, in edge order, which
        is the order of ``_prev``. A parent used twice has two edges."""
        def backward(g):
            for parent, grad in edges:
                if parent.requires_grad:
                    parent._accum(grad(g))

        return Tensor._result(data, [parent for parent, _ in edges], backward)

    def _accum(self, g: np.ndarray) -> None:
        # g may be shared with another parent or be a read-only view: never write into it
        self.grad = g if self.grad is None else self.grad + g

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        return Tensor._node(self.data + other.data,
                            (self, lambda g: _unbroadcast(g, self.data.shape)),
                            (other, lambda g: _unbroadcast(g, other.data.shape)))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._node(-self.data, (self, lambda g: -g))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor._node(self.data * other.data,
                            (self, lambda g: _unbroadcast(g * other.data, self.data.shape)),
                            (other, lambda g: _unbroadcast(g * self.data, other.data.shape)))

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        e = float(exponent)
        return Tensor._node(self.data ** e, (self, lambda g: g * e * self.data ** (e - 1.0)))

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise DimensionError("matmul requires tensors with ndim >= 2")
        if self.data.shape[-1] != other.data.shape[-2]:
            raise DimensionError(
                f"matmul inner dims disagree: {self.data.shape} @ {other.data.shape}")
        return Tensor._node(
            self.data @ other.data,
            (self, lambda g: _unbroadcast(g @ other.data.swapaxes(-1, -2), self.data.shape)),
            (other, lambda g: _unbroadcast(self.data.swapaxes(-1, -2) @ g, other.data.shape)))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return Tensor._node(self.data.reshape(shape), (self, lambda g: g.reshape(old)))

    def transpose(self, *axes):
        inv = np.argsort(axes)
        return Tensor._node(self.data.transpose(axes), (self, lambda g: g.transpose(inv)))

    @property
    def T(self):
        if self.data.ndim != 2:
            raise DimensionError(".T is defined for 2-D tensors only")
        return self.transpose(1, 0)

    def __getitem__(self, key):
        # an int, a slice or a tuple of these selects each element at most once
        basic = all(isinstance(k, (int, np.integer, slice)) and not isinstance(k, bool)
                    for k in (key if isinstance(key, tuple) else (key,)))

        def grad(g):
            full = np.zeros_like(self.data)
            if basic:
                full[key] = g
            else:
                np.add.at(full, key, g)
            return full

        return Tensor._node(self.data[key], (self, grad))

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def grad(g):
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(gg, self.data.shape)

        return Tensor._node(self.data.sum(axis=axis, keepdims=keepdims), (self, grad))

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return Tensor._node(out_data, (self, lambda g: g * out_data))

    def log(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            out_data = np.log(self.data)
        return Tensor._node(out_data, (self, lambda g: g / self.data))

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return Tensor._node(out_data, (self, lambda g: g * 0.5 / out_data))

    def relu(self):
        return Tensor._node(np.maximum(self.data, 0.0), (self, lambda g: g * (self.data > 0.0)))

    def gelu(self):
        cdf = erf(self.data * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5

        def grad(g):
            pdf = np.exp(-0.5 * self.data * self.data) * _INV_SQRT2PI
            return g * (cdf + self.data * pdf)

        return Tensor._node(self.data * cdf, (self, grad))

    # -- backward -------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar; accumulates into leaf grads.

        The sweep then frees the graph it ran: every interior node drops its
        parents and its backward closure, and with them the arrays the
        closures kept, even while the caller still holds the loss. Leaves
        keep ``grad`` and every tensor keeps ``data``. A later sweep that
        reaches a freed node raises ContractError, so run one per graph."""
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                stack.append((p, False))

        seed = np.ones_like(self.data)
        # local adjoint buffers; only leaves keep persistent .grad
        self._accum(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node._prev:
                    node.grad = None  # interior node: free the buffer
        for node in topo:  # after the sweep, not during it: freeing as it goes was slower
            if node._prev:
                node._prev, node._backward = (), _spent


def _spent(g: np.ndarray) -> None:
    raise ContractError("backward() reached a graph that an earlier backward() freed; "
                        "build the loss again")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    edges = []
    for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
        sl = [slice(None)] * t.data.ndim
        sl[axis] = slice(lo, hi)
        edges.append((t, lambda g, sl=tuple(sl): g[sl]))  # bound now, not at backward
    return Tensor._node(np.concatenate([t.data for t in tensors], axis=axis), *edges)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtraction) along `axis`."""
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    p = e / e.sum(axis=axis, keepdims=True)
    return Tensor._node(p, (x, lambda g: (g - (g * p).sum(axis=axis, keepdims=True)) * p))


def cross_entropy(logits: Tensor, targets, weights=1.0) -> Tensor:
    """Sum over rows i of ``weights[i] * -log softmax(logits[i])[targets[i]]``
    as one node. `logits` is (..., n), `targets` an int array of its leading
    shape and `weights` broadcasts to it. Only the probabilities are kept:
    the backward is ``g * weights * (probs - onehot)``."""
    z = logits.data.reshape(-1, logits.data.shape[-1])
    hit = np.arange(len(z)), np.asarray(targets, dtype=np.int64).reshape(-1)
    w = np.broadcast_to(weights, logits.data.shape[:-1]).reshape(-1)
    probs = z - z.max(axis=-1, keepdims=True)  # log-sum-exp shift
    picked = probs[hit]
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1)
    probs /= total[:, None]

    def dlogits(g):
        grad = probs * (g * w)[:, None]
        grad[hit] -= g * w
        return grad.reshape(logits.data.shape)

    return Tensor._node(np.asarray((w * (np.log(total) - picked)).sum()), (logits, dlogits))


def weighted_square_error(pred: Tensor, target: np.ndarray, weights) -> Tensor:
    """``sum(weights * (pred - target)**2)`` as one node; `weights` broadcasts
    to pred's shape. Only the difference is kept: the backward is ``t + t``
    with ``t = g * weights * diff``, as the chain's two edges into the
    square add, so value and gradient equal the neg/add/mul/mul/sum chain
    bitwise."""
    diff = pred.data - target

    def dpred(g):
        t = (g * weights) * diff
        return t + t

    return Tensor._node(np.asarray((diff * diff * weights).sum()), (pred, dpred))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine, as
    one node whose backward keeps only xhat and 1/std (Ba et al., 2016)."""
    if gamma.data.shape[-1] != x.data.shape[-1] or beta.data.shape[-1] != x.data.shape[-1]:
        raise DimensionError("gamma/beta must match the last axis of x")

    def mean(a):  # sum times 1/n as in Tensor.mean: outputs equal the composition bitwise
        return a.sum(axis=-1, keepdims=True) * (1.0 / x.data.shape[-1])
    xhat = x.data - mean(x.data)
    inv_std = (mean(xhat * xhat) + LN_EPS) ** -0.5
    xhat *= inv_std

    def dx(g):
        gx = g * gamma.data
        return inv_std * (gx - mean(gx) - xhat * mean(gx * xhat))

    return Tensor._node(xhat * gamma.data + beta.data, (x, dx),
                        (gamma, lambda g: _unbroadcast(g * xhat, gamma.data.shape)),
                        (beta, lambda g: _unbroadcast(g, beta.data.shape)))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w (+ b)`` over the last axis of x as one node: the weight
    gradient is one GEMM over all leading rows, the bias gradient a row sum."""
    if w.data.ndim != 2 or x.data.shape[-1:] != w.data.shape[:1] or (
            b is not None and b.data.shape != w.data.shape[1:]):
        raise DimensionError(f"linear map of {x.data.shape} by {w.data.shape}, bias {b}")
    out = x.data @ w.data
    if b is not None:
        out += b.data

    def rows(g):
        return g.reshape(-1, g.shape[-1])
    bias = () if b is None else ((b, lambda g: rows(g).sum(axis=0)),)
    return Tensor._node(out, (x, lambda g: g @ w.data.T),
                        (w, lambda g: x.data.reshape(-1, w.data.shape[0]).T @ rows(g)), *bias)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              key_mask: np.ndarray | None = None, record: list | None = None) -> Tensor:
    """Multi-head ``softmax(q·kᵀ/√d_h)·v`` of (B, Nq, d) queries over
    (B, Nkv, d) keys and values as one node. `key_mask`, the (B, Nkv) bool
    mask of real keys, leaves out the pads: their scores get ``NEG_MASK_BIAS``,
    so beside a real key their probabilities are exactly 0. When the scores of
    all B·h head slices fit ``ATTENTION_TILE_BYTES``, or `record` takes the
    (B, h, Nq, Nkv) probabilities, the node is one tile and the backward keeps
    them. Otherwise the slices run in tiles on the ``TILE_WORKERS``, which
    share the budget; the backward keeps only each row's max and sum and
    recomputes the tile's probabilities (FlashAttention's trade, Dao et al.,
    2022). Both passes compute probabilities with the same operations, and
    each tile writes only its own slices, so every tiling gives the same
    bits."""
    (b, n_q, d), n_kv = q.data.shape, k.data.shape[1]
    if d % n_heads or k.data.shape != (b, n_kv, d) or v.data.shape != k.data.shape or (
            key_mask is not None and np.shape(key_mask) != (b, n_kv)):
        raise DimensionError(f"attention of {q.data.shape} over {k.data.shape} keys and "
                             f"{v.data.shape} values in {n_heads} heads, key mask "
                             f"{np.shape(key_mask)}")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    bh = b * n_heads

    def split(a):  # (B, N, d) -> contiguous (B·h, N, d_h); a view of `a` when h == 1
        return np.ascontiguousarray(
            a.reshape(b, -1, n_heads, dh).transpose(0, 2, 1, 3)).reshape(bh, -1, dh)
    def merge(a):  # (B·h, N, d_h) -> (B, N, d)
        return a.reshape(b, n_heads, -1, dh).transpose(0, 2, 1, 3).reshape(b, -1, d)
    qh, kh, vh = split(q.data * scale), split(k.data), split(v.data)
    bias = None
    if key_mask is not None and not key_mask.all():  # one (1, Nkv) row per head slice
        bias = np.repeat(np.where(key_mask, 0.0, NEG_MASK_BIAS), n_heads, axis=0)[:, None]
    row_max, row_sum = np.empty((bh, n_q, 1)), np.empty((bh, n_q, 1))

    def probabilities(t, forward):
        # the forward stores each row's max and sum; a recompute reuses them
        p = qh[t] @ kh[t].swapaxes(-1, -2)
        if bias is not None:
            p += bias[t]
        if forward:
            np.max(p, axis=-1, keepdims=True, out=row_max[t])
        p -= row_max[t]
        np.exp(p, out=p)
        if forward:
            np.sum(p, axis=-1, keepdims=True, out=row_sum[t])
        p /= row_sum[t]
        return p

    slice_bytes = 8 * n_q * n_kv
    probs = None
    if record is not None or bh <= max(1, ATTENTION_TILE_BYTES // slice_bytes):
        tiles = [slice(None)]
        probs = probabilities(tiles[0], True)
        if record is not None:
            record.append(probs.reshape(b, n_heads, n_q, n_kv))
    else:
        per_tile = max(1, ATTENTION_TILE_BYTES // TILE_WORKERS // slice_bytes)
        tiles = [slice(s, s + per_tile) for s in range(0, bh, per_tile)]
    heads = np.empty((bh, n_q, dh))
    _each_tile(lambda t: np.matmul(probabilities(t, True) if probs is None else probs,
                                   vh[t], out=heads[t]), tiles)
    out = merge(heads)

    def backward(g):
        gh = split(g)
        # the row dot dP·P equals dO·O
        dot = (g * out).reshape(b, n_q, n_heads, dh).sum(axis=-1)
        dot = dot.transpose(0, 2, 1).reshape(bh, n_q, 1)
        dq, dk, dv = (np.empty_like(a) if x.requires_grad else None
                      for a, x in ((qh, q), (kh, k), (vh, v)))

        def tile(t):
            p = probabilities(t, False) if probs is None else probs
            if dv is not None:
                np.matmul(p.swapaxes(-1, -2), gh[t], out=dv[t])
            # softmax backward in dP's own buffer
            ds = gh[t] @ vh[t].swapaxes(-1, -2)
            ds -= dot[t]
            ds *= p
            if dq is not None:
                np.matmul(ds, kh[t], out=dq[t])
            if dk is not None:
                np.matmul(ds.swapaxes(-1, -2), qh[t], out=dk[t])

        _each_tile(tile, tiles)
        if dv is not None:
            v._accum(merge(dv))
        if dq is not None:
            q._accum(merge(dq) * scale)
        if dk is not None:
            k._accum(merge(dk))

    return Tensor._result(out, (q, k, v), backward)


def unit_rows(x: Tensor) -> Tensor:
    """L2-normalize each row of a 2-D tensor."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    if np.any(sq.data == 0.0):
        raise DegenerateInputError("zero-norm row cannot be unit-normalized")
    return x * sq ** -0.5


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor,
                      max_elements: int | None = None,
                      rng: RngStream | None = None) -> float:
    """Compare analytic grad of f at x against central finite differences.

    Returns the max over checked elements of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    With `max_elements`, a deterministic random subset of coordinates is
    checked (large parameter tensors).
    """
    step = 1e-5
    x.grad = None
    loss = f(x)
    if loss.data.size != 1:
        raise ContractError("finite_diff_check requires a scalar-valued f")
    loss.backward()
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
    x.grad = None

    n = x.data.size
    if max_elements is not None and max_elements < n:
        gen = rng if rng is not None else RngStream(0)
        idxs = gen.permutation(n)[:max_elements]
    else:
        idxs = np.arange(n)

    max_err = 0.0
    flat = x.data.reshape(-1)
    with no_grad():
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f(x).data)
            flat[i] = orig - step
            fm = float(f(x).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * step)
            a = float(analytic.reshape(-1)[i])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, err)
    return max_err
