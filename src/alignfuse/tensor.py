"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a :class:`Tensor` wrapping a numpy
array. A tensor that needs a gradient also has a graph :class:`Node`, and
each operation's output node lists its parents' nodes and one backward
that maps its gradient to one gradient per parent; ``backward()`` on a
scalar replays that graph in reverse topological order and accumulates
adjoints into leaf ``grad`` buffers. Gradients add across multiple uses of
the same tensor, which is what the weight-shared encoders rely on. Nodes
hold no values: an interior array lives as long as its tensor, or as a
backward closure that captured it, and no longer.

Each sublayer of a pre-norm transformer block, ``x + F(LN(x))``, is one
node with its residual: ``attention_sublayer`` (layer norm, q/k/v maps,
multi-head attention, output map) and ``ffn_sublayer`` (layer norm, map,
GELU, map). They keep what is costly to rebuild (xhat and 1/std, the
projections, the attention output and each softmax row's max and sum; the
FFN's Φ(h)) and rebuild the rest in backward with the forward's operations
(the layer-norm output; the attention probabilities, tile by tile; the
FFN's pre-activation h, one GEMM, and its GELU output), so their values and
gradients equal those of ``x +`` the composition of ``layer_norm``,
``linear``, ``attention`` and ``Tensor.gelu`` bitwise. No node keeps or
returns attention probabilities: ``cls_attention`` computes those of the
[CLS] query with the step that ``attention`` runs, and its row from them.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import (ContractError, DegenerateInputError, DimensionError, NumericError,
                     check_indices)

_GRAD_ENABLED = True

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Additive logit bias for disallowed attention keys. Finite (so the
# NaN/Inf guard stays active) but large enough that exp underflows to 0.
NEG_MASK_BIAS = -1e30
LN_EPS = 1e-5  # added to the layer-norm variance
# Bytes of float64 scores that the tiles in flight of one attention node
# share: the forward holds at most this much of scores at once and the
# backward, a tile's probabilities beside their gradient, at most twice it
# (unless one head slice alone is larger). A desk-sized node is one tile; a
# 513-token image node is several. Node timings were the same from one to
# four 513-token slices per tile. The one-row scores of ``cls_attention``
# are one tile at any size.
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


def _each_tile(body: Callable[[slice], None], tiles: list[slice], workers: int) -> None:
    """Call ``body(t)`` for every tile, at most `workers` (and
    ``TILE_WORKERS``) of them at once: on the tile workers when that is
    several tiles, else in the caller. The first error a tile raises comes
    out here; tiles not yet started are then cancelled."""
    workers = min(workers, TILE_WORKERS, len(tiles))
    run = map if workers == 1 else _tile_pool(workers).map
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


def _rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """``x @ w (+ b)`` over the last axis of x: the forward of ``linear``."""
    out = x @ w
    if b is not None:
        out += b
    return out


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Φ(x), the standard normal CDF: GELU(x) is ``x * Φ(x)``."""
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty_like(x))  # an array even when x is 0-d
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """dGELU/dx, ``cdf + x * (exp(-x²/2) / √(2π))``, from x and its Φ(x),
    built in one buffer with the operations of that expression in its order
    (products and sums commute), so it has the expression's bits."""
    t = np.multiply(-0.5, x, out=np.empty_like(x))
    t *= x
    np.exp(t, out=t)
    t *= _INV_SQRT2PI
    t *= x
    t += cdf
    return t


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Layer norm of x over its last axis, on arrays (Ba et al., 2016).
    Returns ``output()``, which computes ``xhat * gamma + beta`` (called
    again, it rebuilds the same bits), and ``backward(g)``, which maps the
    output's gradient to those of x, gamma and beta. Both keep only xhat and
    1/std. Means are sums times 1/n, as in ``Tensor.mean``, so the outputs
    equal those of the composition of engine ops bitwise."""
    n = x.shape[-1]

    def mean(a):
        return a.sum(axis=-1, keepdims=True) * (1.0 / n)
    xhat = x - mean(x)
    inv_std = (mean(xhat * xhat) + LN_EPS) ** -0.5
    xhat *= inv_std

    def output():
        return xhat * gamma + beta

    def backward(g):
        gx = g * gamma
        return (inv_std * (gx - mean(gx) - xhat * mean(gx * xhat)),
                _unbroadcast(g * xhat, gamma.shape), _unbroadcast(g, beta.shape))

    return output, backward


class Node:
    """A tensor's place in the autodiff graph: its adjoint buffer, the
    nodes of the parents that need a gradient, and the backward closure
    that adds into them. It references nodes, never tensors or values."""
    __slots__ = ("grad", "_prev", "_backward")

    def __init__(self, prev: tuple = (),
                 backward: Callable[[np.ndarray], None] | None = None):
        self.grad: np.ndarray | None = None
        self._prev = prev
        self._backward = backward

    def _accum(self, g: np.ndarray) -> None:
        # g may be shared with another parent or be a read-only view: never write into it
        self.grad = g if self.grad is None else self.grad + g

    def backward(self, seed: np.ndarray) -> None:
        """Reverse-mode sweep from this node with adjoint `seed`; see
        :meth:`Tensor.backward`."""
        topo: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(self, False)]
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


class Tensor:
    """A float64 array (``data``) and, when it needs a gradient, its graph
    ``node``. Only a tensor that requires grad has a node: a leaf made with
    ``requires_grad=True``, or an op's output over such a tensor outside
    ``no_grad``."""
    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor initialized with non-finite values")
        self.data = arr
        self.node = Node() if requires_grad else None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _node(data: np.ndarray, parents: Sequence["Tensor"],
              grads: Callable[[np.ndarray], Sequence]) -> "Tensor":
        """An op's output `data` over `parents`. ``grads(g)`` maps the
        output's gradient to one gradient per parent, in `parents` order;
        the backward drops the entries of the parents that require no grad
        and adds the rest into their nodes in that order, which is the order
        of ``_prev``, one addition per parent: a parent used twice is listed
        twice. The backward keeps the parents' nodes, and `grads` must
        capture arrays and shapes, never a tensor."""
        if not np.isfinite(data).all():
            raise NumericError("operation produced non-finite values")
        out = Tensor.__new__(Tensor)
        out.data, out.node = np.asarray(data), None  # a 0-d result is an array, not a scalar
        need = [parent.node is not None for parent in parents]
        if not (_GRAD_ENABLED and any(need)):
            return out
        prev = tuple(parent.node for parent in parents if parent.node is not None)

        def backward(g):
            for node, grad in zip(prev, itertools.compress(grads(g), need)):
                node._accum(grad)

        out.node = Node(prev, backward)
        return out

    # -- basic properties -----------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self.node is not None:
            self.node.grad = value
        elif value is not None:
            raise ContractError("a tensor that requires no grad holds no gradient")

    @property
    def _prev(self) -> tuple:
        """The nodes of the parents that need a gradient."""
        return () if self.node is None else self.node._prev

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
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element tensor, not shape {self.data.shape}")
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        a, b = self.data.shape, other.data.shape
        return Tensor._node(self.data + other.data, (self, other),
                            lambda g: (_unbroadcast(g, a), _unbroadcast(g, b)))

    __radd__ = __add__

    def __neg__(self):
        return Tensor._node(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        return Tensor._node(a * b, (self, other), lambda g: (_unbroadcast(g * b, a.shape),
                                                             _unbroadcast(g * a, b.shape)))

    __rmul__ = __mul__

    def __pow__(self, exponent: float):
        e, x = float(exponent), self.data
        return Tensor._node(x ** e, (self,), lambda g: (g * e * x ** (e - 1.0),))

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise DimensionError("matmul requires tensors with ndim >= 2")
        if a.shape[-1] != b.shape[-2]:
            raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
        return Tensor._node(a @ b, (self, other), lambda g: (
            _unbroadcast(g @ b.swapaxes(-1, -2), a.shape),
            _unbroadcast(a.swapaxes(-1, -2) @ g, b.shape)))

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return Tensor._node(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    def transpose(self, *axes):
        inv = np.argsort(axes)
        return Tensor._node(self.data.transpose(axes), (self,), lambda g: (g.transpose(inv),))

    @property
    def T(self):
        if self.data.ndim != 2:
            raise DimensionError(".T is defined for 2-D tensors only")
        return self.transpose(1, 0)

    def __getitem__(self, key):
        # an int, a slice or a tuple of these selects each element at most once
        basic = all(isinstance(k, (int, np.integer, slice)) and not isinstance(k, bool)
                    for k in (key if isinstance(key, tuple) else (key,)))
        shape = self.data.shape

        def grads(g):
            full = np.zeros(shape)
            if basic:
                full[key] = g
            else:
                np.add.at(full, key, g)
            return (full,)

        return Tensor._node(self.data[key], (self,), grads)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        shape = self.data.shape

        def grads(g):
            gg = g if axis is None or keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, shape),)

        return Tensor._node(self.data.sum(axis=axis, keepdims=keepdims), (self,), grads)

    def mean(self, axis=None, keepdims: bool = False):
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = self.data.size if axis is None else math.prod(self.data.shape[a] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return Tensor._node(out_data, (self,), lambda g: (g * out_data,))

    def log(self):
        x = self.data
        with np.errstate(invalid="ignore", divide="ignore"):
            out_data = np.log(x)
        return Tensor._node(out_data, (self,), lambda g: (g / x,))

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return Tensor._node(out_data, (self,), lambda g: (g * 0.5 / out_data,))

    def relu(self):
        x = self.data
        return Tensor._node(np.maximum(x, 0.0), (self,), lambda g: (g * (x > 0.0),))

    def gelu(self):
        x = self.data
        cdf = _gelu_cdf(x)
        return Tensor._node(x * cdf, (self,), lambda g: (g * _gelu_slope(x, cdf),))

    # -- backward -------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar; accumulates into leaf grads.

        Graph nodes hold no values: an interior array lives only while its
        tensor does or a backward closure captured it. The sweep then frees
        the graph it ran: every interior node drops its parents and its
        backward closure, and with them the arrays the closures kept, even
        while the caller still holds the loss. Leaves keep ``grad``. A later
        sweep that reaches a freed node raises ContractError, so run one per
        graph."""
        if self.data.size != 1:
            raise ContractError("backward() requires a scalar loss")
        if self.node is not None:
            self.node.backward(np.ones_like(self.data))


def _spent(g: np.ndarray) -> None:
    raise ContractError("backward() reached a graph that an earlier backward() freed; "
                        "build the loss again")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    cuts = np.cumsum([t.data.shape[axis] for t in tensors[:-1]])
    return Tensor._node(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                        lambda g: np.split(g, cuts, axis=axis))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax (max-subtraction) along `axis`."""
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    p = e / e.sum(axis=axis, keepdims=True)
    return Tensor._node(p, (x,), lambda g: ((g - (g * p).sum(axis=axis, keepdims=True)) * p,))


def cross_entropy(logits: Tensor, targets, weights=1.0) -> Tensor:
    """Sum over rows i of ``weights[i] * -log softmax(logits[i])[targets[i]]``
    as one node. `logits` is (..., n), `targets` an int array of its leading
    shape and `weights` broadcasts to it. Only the probabilities are kept:
    the backward is ``g * weights * (probs - onehot)``."""
    shape = logits.data.shape
    z = logits.data.reshape(-1, shape[-1])
    hit = np.arange(len(z)), check_indices(targets, shape[-1], "target", ContractError).reshape(-1)
    w = np.broadcast_to(weights, shape[:-1]).reshape(-1)
    probs = z - z.max(axis=-1, keepdims=True)  # log-sum-exp shift
    picked = probs[hit]
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1)
    probs /= total[:, None]

    def grads(g):
        grad = probs * (g * w)[:, None]
        grad[hit] -= g * w
        return (grad.reshape(shape),)

    return Tensor._node((w * (np.log(total) - picked)).sum(), (logits,), grads)


def weighted_square_error(pred: Tensor, target: np.ndarray, weights) -> Tensor:
    """``sum(weights * (pred - target)**2)`` as one node; `weights` broadcasts
    to pred's shape. Only the difference is kept: the backward is ``t + t``
    with ``t = g * weights * diff``, as the chain's two edges into the
    square add, so value and gradient equal the neg/add/mul/mul/sum chain
    bitwise. Each pass writes its products into one buffer."""
    diff = pred.data - target

    def grads(g):
        t = (g * weights) * diff
        t += t
        return (t,)

    sq = diff * diff
    sq *= weights
    return Tensor._node(sq.sum(), (pred,), grads)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine, as
    one node whose backward keeps only xhat and 1/std."""
    if gamma.data.shape[-1] != x.data.shape[-1] or beta.data.shape[-1] != x.data.shape[-1]:
        raise DimensionError("gamma/beta must match the last axis of x")
    output, backward = _layer_norm(x.data, gamma.data, beta.data)
    return Tensor._node(output(), (x, gamma, beta), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w (+ b)`` over the last axis of x as one node: the weight
    gradient is one GEMM over all leading rows, the bias gradient a row sum.
    It is the one op that reads whether a parent requires grad: the input
    gradient of a constant x (the patch embedding's patches) would be a GEMM
    as large as the forward's, so it is not computed."""
    if w.data.ndim != 2 or x.data.shape[-1:] != w.data.shape[:1] or (
            b is not None and b.data.shape != w.data.shape[1:]):
        raise DimensionError(f"linear map of {x.data.shape} by {w.data.shape}, bias {b}")
    xd, wd, need_x, bias = x.data, w.data, x.node is not None, b is not None

    def grads(g):
        return (g @ wd.T if need_x else None, _rows(xd).T @ _rows(g),
                *((_rows(g).sum(axis=0),) if bias else ()))

    return Tensor._node(_affine(xd, wd, None if b is None else b.data),
                        (x, w) if b is None else (x, w, b), grads)


def _head_scores(q: np.ndarray, k: np.ndarray, n_heads: int, key_mask):
    """Checks the (B, Nq, d) queries, (B, Nkv, d) keys and key mask of
    multi-head attention. Returns ``split``, which makes (B, N, d) rows
    contiguous (B·h, N, d_h) head slices, 1/√d_h, the split scaled q and k,
    and ``probabilities(t, forward)``, those of head slices t: the forward's
    call stores each row's max and sum, and a recompute reuses them."""
    if q.ndim != 3 or k.ndim != 3:
        raise DimensionError(f"attention of {q.shape} over {k.shape} keys: rows must be 3-D")
    (b, n_q, d), n_kv = q.shape, k.shape[1]
    if key_mask is not None:
        key_mask = np.asarray(key_mask)
    if 0 in (b, n_q, n_kv, d) or d % n_heads or k.shape != (b, n_kv, d) or (
            key_mask is not None and key_mask.shape != (b, n_kv)):
        raise DimensionError(f"attention of {q.shape} over {k.shape} keys in {n_heads} heads, "
                             f"key mask {np.shape(key_mask)}")
    if key_mask is not None and key_mask.dtype != bool:
        raise DimensionError(f"key mask of dtype {key_mask.dtype}: it must be bool")
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):  # a view of `a` when h == 1
        return np.ascontiguousarray(
            a.reshape(b, -1, n_heads, dh).transpose(0, 2, 1, 3)).reshape(b * n_heads, -1, dh)
    qh, kh = split(q * scale), split(k)
    bias = None
    if key_mask is not None and not key_mask.all():  # one (1, Nkv) row per head slice
        bias = np.repeat(np.where(key_mask, 0.0, NEG_MASK_BIAS), n_heads, axis=0)[:, None]
    row_max, row_sum = np.empty((len(qh), n_q, 1)), np.empty((len(qh), n_q, 1))

    def probabilities(t, forward):
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

    return split, scale, qh, kh, probabilities


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, key_mask):
    """Multi-head attention on arrays; see ``attention``. Returns the
    (B, Nq, d) output and ``backward(g)``, which maps the output's gradient
    to those of q, k and v."""
    if v.shape != k.shape:
        raise DimensionError(f"attention over {k.shape} keys and {v.shape} values")
    split, scale, qh, kh, probabilities = _head_scores(q, k, n_heads, key_mask)
    (b, n_q, d), n_kv, vh = q.shape, k.shape[1], split(v)
    bh, dh = len(qh), d // n_heads

    def merge(a):  # (B·h, N, d_h) -> (B, N, d)
        return a.reshape(b, n_heads, -1, dh).transpose(0, 2, 1, 3).reshape(b, -1, d)

    # a node is one tile when its head slices fit the budget; else the tiles
    # share it, and no more of them run at once than it holds
    slice_bytes = 8 * n_q * n_kv
    fit = max(1, ATTENTION_TILE_BYTES // slice_bytes)
    per_tile = bh if bh <= fit else max(1, fit // TILE_WORKERS)
    tiles = [slice(s, s + per_tile) for s in range(0, bh, per_tile)]
    workers = max(1, fit // per_tile)
    heads = np.empty((bh, n_q, dh))

    def forward(t):
        np.matmul(probabilities(t, True), vh[t], out=heads[t])

    _each_tile(forward, tiles, workers)
    out = merge(heads)

    def backward(g):
        gh = split(g)
        # the row dot dP·P equals dO·O
        dot = (g * out).reshape(b, n_q, n_heads, dh).sum(axis=-1)
        dot = dot.transpose(0, 2, 1).reshape(bh, n_q, 1)
        dq, dk, dv = (np.empty_like(a) for a in (qh, kh, vh))

        def tile(t):
            p = probabilities(t, False)
            np.matmul(p.swapaxes(-1, -2), gh[t], out=dv[t])
            # softmax backward in dP's own buffer
            ds = gh[t] @ vh[t].swapaxes(-1, -2)
            ds -= dot[t]
            ds *= p
            np.matmul(ds, kh[t], out=dq[t])
            np.matmul(ds.swapaxes(-1, -2), qh[t], out=dk[t])

        _each_tile(tile, tiles, workers)
        return merge(dq) * scale, merge(dk), merge(dv)

    return out, backward


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, key_mask=None) -> Tensor:
    """Multi-head ``softmax(q·kᵀ/√d_h)·v`` of (B, Nq, d) queries over
    (B, Nkv, d) keys and values as one node. `key_mask`, the (B, Nkv) bool
    mask of real keys (any array-like), leaves out the pads: their scores get
    ``NEG_MASK_BIAS``, so beside a real key their probabilities are exactly 0.
    The forward computes each tile's probabilities, keeps each row's max
    and sum, multiplies by v and drops them; ``cls_attention`` is the one
    way to read probabilities. The backward recomputes each tile's
    probabilities from the row max and sum (FlashAttention's trade, Dao et
    al., 2022). When the scores of all B·h head slices fit
    ``ATTENTION_TILE_BYTES``, the node is one tile. Otherwise the slices run
    in tiles on the ``TILE_WORKERS``, and the tiles in flight share the
    budget. Both passes compute probabilities with the same operations, and
    each tile writes only its own slices, so every tiling gives the same
    bits. The backward computes the gradients of all three inputs, as the
    sublayer nodes need them, and ``_node`` drops those of the inputs that
    require no grad."""
    out, backward = _attend(q.data, k.data, v.data, n_heads, key_mask)
    return Tensor._node(out, (q, k, v), backward)


def attention_sublayer(x: Tensor, norm: Sequence[Tensor], maps: Sequence[Tensor], n_heads: int,
                       key_mask=None, ctx: Tensor | None = None) -> Tensor:
    """The attention sublayer of a pre-norm block and its residual as one
    node: ``x + attention(u·wq + bq, c·wk, c·wv + bv)·wo + bo`` with ``u``
    the layer norm of the (B, N, d) rows `x` under ``norm = (gamma, beta)``,
    and ``c`` either u (self-attention) or the (B, Nc, d) `ctx`
    (cross-attention; ctx gets no norm). ``maps = (wq, bq, wk, wv, bv, wo,
    bo)``; the key map has no bias, since it would add the same amount to
    every score of a query. `key_mask` (B, Nc) marks the real rows of c, as
    in ``attention``. ``cls_attention`` is its [CLS] query alone, forward only.

    The backward keeps xhat and 1/std, the head-split q, k and v, the
    attention output and each probability row's max and sum. It rebuilds
    u from xhat with the forward's operations and does not recompute the
    projections, so value and gradients equal those of the residual add over
    the layer_norm / linear / attention / linear composition bitwise: x has
    an edge for the residual and then one for the norm, u's gradient adds
    the q, k and v terms in the composition's order, and ctx has an edge for
    k and one for v."""
    gamma, beta = norm
    wq, bq, wk, wv, bv, wo, bo = maps
    d = x.data.shape[-1]
    if any(w.data.shape != (d, d) for w in (wq, wk, wv, wo)) or any(
            t.data.shape != (d,) for t in (gamma, beta, bq, bv, bo)) or (
            ctx is not None and ctx.data.shape[-1] != d):
        raise DimensionError(f"attention sublayer of {x.data.shape} rows by maps of "
                             f"{[w.data.shape for w in maps]}")
    wqd, wkd, wvd, wod = wq.data, wk.data, wv.data, wo.data
    norm_out, norm_backward = _layer_norm(x.data, gamma.data, beta.data)
    u = norm_out()
    cd = None if ctx is None else ctx.data
    kv = u if cd is None else cd
    att, attend_backward = _attend(_affine(u, wqd, bq.data), kv @ wkd,
                                   _affine(kv, wvd, bv.data), n_heads, key_mask)
    out = _affine(att, wod, bo.data)
    out += x.data  # the bits of x + out: addition commutes

    def backward(g):
        dwo, dbo = _rows(att).T @ _rows(g), _rows(g).sum(axis=0)
        dq, dk, dv = attend_backward(g @ wod.T)
        u = norm_out()
        kv = u if cd is None else cd
        dwq, dbq = _rows(u).T @ _rows(dq), _rows(dq).sum(axis=0)
        dwk = _rows(kv).T @ _rows(dk)
        dwv, dbv = _rows(kv).T @ _rows(dv), _rows(dv).sum(axis=0)
        du = dq @ wqd.T
        dkv_k, dkv_v = dk @ wkd.T, dv @ wvd.T
        if cd is None:
            du += dkv_k
            du += dkv_v
        dx, dgamma, dbeta = norm_backward(du)
        ctx_k, ctx_v = ((), ()) if cd is None else ((dkv_k,), (dkv_v,))
        return (g, dx, dgamma, dbeta, dwq, dbq, *ctx_k, dwk, *ctx_v, dwv, dbv, dwo, dbo)

    ctx_edge = () if ctx is None else (ctx,)
    return Tensor._node(out, (x, x, gamma, beta, wq, bq, *ctx_edge, wk, *ctx_edge, wv, bv, wo, bo),
                        backward)


def cls_attention(x: Tensor, norm: Sequence[Tensor], maps: Sequence[Tensor], n_heads: int,
                  key_mask=None) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """The [CLS] query (row 0 of the (B, N, d) rows `x`) of ``attention_sublayer(x,
    norm, maps, n_heads, key_mask)``, with its bits and no graph. Returns the
    (B, h, 1, N) probabilities, which read only wq, bq and wk (layer norm, q
    map of row 0, k map of every row, then ``attention``'s step in one tile),
    and ``row()``, the (B, 1, d) row 0 from them: v map, P·V, output map, + x."""
    (gamma, beta), x, d = norm, x.data, x.data.shape[-1]
    if x.ndim != 3 or [t.data.shape for t in (gamma, beta, *maps)] != [
            (d,), (d,), (d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,)]:
        raise DimensionError(f"[CLS] attention of {x.shape} rows by maps of "
                             f"{[w.data.shape for w in maps]}")
    wq, bq, wk, wv, bv, wo, bo = (t.data for t in maps)
    u = _layer_norm(x, gamma.data, beta.data)[0]()
    split, *_, probs = _head_scores(_affine(u[:, :1], wq, bq), u @ wk, n_heads, key_mask)
    p = probs(slice(None), True)

    def row():  # (B·h, 1, d_h) heads are (B, 1, d) rows; + x has the bits of the node's out + x
        return x[:, :1] + _affine((p @ split(_affine(u, wv, bv))).reshape(len(x), 1, d), wo, bo)

    return p.reshape(len(x), n_heads, 1, -1), row


def ffn_sublayer(x: Tensor, norm: Sequence[Tensor], w1: Tensor, b1: Tensor, w2: Tensor,
                 b2: Tensor) -> Tensor:
    """The FFN sublayer of a pre-norm block and its residual as one node:
    ``x + GELU(u·w1 + b1)·w2 + b2`` with ``u`` the layer norm of `x` under
    ``norm = (gamma, beta)``. The forward writes the GELU output ``h·Φ(h)``
    into the pre-activation h's own buffer, and the backward keeps only
    xhat and 1/std and Φ(h). It rebuilds u once, and from it h with the
    forward's one GEMM, then the GELU output; it does not recompute erf.
    So value and gradients equal those of the residual add over the
    layer_norm / linear / gelu / linear composition bitwise: x has an edge
    for the residual and then one for the norm."""
    gamma, beta = norm
    d, f = x.data.shape[-1], w1.data.shape[-1]
    if [t.data.shape for t in (gamma, beta, w1, b1, w2, b2)] != [(d,), (d,), (d, f), (f,),
                                                                 (f, d), (d,)]:
        raise DimensionError(f"FFN sublayer of {x.data.shape} rows by {w1.data.shape} "
                             f"and {w2.data.shape} maps")
    w1d, b1d, w2d = w1.data, b1.data, w2.data
    norm_out, norm_backward = _layer_norm(x.data, gamma.data, beta.data)
    h = _affine(norm_out(), w1d, b1d)
    cdf = _gelu_cdf(h)
    h *= cdf  # the GELU output, in h's buffer: only Φ(h) is kept
    out = _affine(h, w2d, b2.data)
    out += x.data  # the bits of x + out: addition commutes

    def backward(g):
        u = norm_out()
        h = _affine(u, w1d, b1d)
        dh = _gelu_slope(h, cdf)
        h *= cdf  # the GELU output, in h's buffer
        dw2, db2 = _rows(h).T @ _rows(g), _rows(g).sum(axis=0)
        del h
        dh *= g @ w2d.T  # the slope times the GELU output's gradient
        dw1, db1 = _rows(u).T @ _rows(dh), _rows(dh).sum(axis=0)
        del u
        dx, dgamma, dbeta = norm_backward(dh @ w1d.T)
        return g, dx, dgamma, dbeta, dw1, db1, dw2, db2

    return Tensor._node(out, (x, x, gamma, beta, w1, b1, w2, b2), backward)


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
    with no_grad():
        for i in idxs:
            # by index, not through a flat view: reshape copies a non-contiguous x
            at = np.unravel_index(i, x.data.shape)
            orig = x.data[at]
            x.data[at] = orig + step
            fp = f(x).item()
            x.data[at] = orig - step
            fm = f(x).item()
            x.data[at] = orig
            numeric = (fp - fm) / (2.0 * step)
            a = float(analytic[at])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, err)
    return max_err
