"""Dense float64 tensors with reverse-mode automatic differentiation.

Every model computation in this package runs through the ops defined here,
so a single `backward` call yields gradients for all trainable parameters.
The design is define-by-run: each op records its operands and a closure
computing the vector-Jacobian product, and `backward` replays the recorded
graph in reverse topological order.

Broadcasting follows the trailing-axis rule (align shapes from the right,
axes of size 1 expand). `matmul` accepts stacked operands: leading axes are
treated as batch dimensions and broadcast the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes cannot be combined."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


class Tensor:
    """A dense n-dimensional float64 array, optionally tracked for gradients.

    Tensors are hashable by identity; a trainable parameter is a leaf tensor
    with ``requires_grad=True`` and is used as the key in a GradientMap.
    """

    __slots__ = ("data", "requires_grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple[Tensor, ...] | None = None
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _not_scalar(self)

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


GradientMap = dict  # parameter Tensor -> gradient Tensor of identical shape


def _not_scalar(t: Tensor):
    raise ShapeError(f"expected a scalar tensor, got shape {t.shape}")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    try:
        return np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ShapeError(f"shapes {sa} and {sb} are not broadcastable") from None


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing trailing-axis broadcasting."""
    while grad.ndim > len(shape):  # a leading axis of 1 (a one-gate stack's) drops free
        grad = grad[0] if grad.shape[0] == 1 else grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out_data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out_data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard (pointwise) product with broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_shape(a.shape, b.shape)
    out_data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out_data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading axes act as broadcast batch dimensions."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-D or higher operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    _broadcast_shape(a.shape[:-2], b.shape[:-2])
    out_data = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make(out_data, (a, b), vjp)


def diffuse(z: Tensor, e1: Tensor, e2: Tensor, thetas) -> Tensor:
    """K-hop diffusion through the low-rank adjacency E1 E2^T, filtered per hop.

    `thetas` holds one list of K+1 filters (F x beta) per gate. Gate g
    returns sum_i S_i theta_{g,i} for i = 0..K, where S_0 = Z and
    S_i = (E1 E2^T)^i Z, and the output is (gates, N, ..., beta). `z` is
    node-major behind its gate axis, (gates, N, ..., F): the station axis
    next, the feature axis last and any batch axes between. A `z` whose
    gate axis is 1 is read by every gate, and its hops are computed once.
    `e1` and `e2` are N x L.

    The hops run in rank space: T_1 = E2^T Z and T_{i+1} = G T_i with
    G = E2^T E1 (L x L), so S_i = E1 T_i is never formed. The node-major
    layout folds the batch axes into columns for free (N x B*F), so each
    product is one GEMM per gate; the hop filters act on free (L*B) x F
    views of the T_i, and a single product with E1 returns to station space.
    """
    z, e1, e2 = _as_tensor(z), _as_tensor(e1), _as_tensor(e2)
    per_gate = [[_as_tensor(t) for t in ts] for ts in thetas]
    flat = [t for ts in per_gate for t in ts]
    if not flat or any(len(ts) != len(per_gate[0]) for ts in per_gate) or any(
        t.ndim != 2 or t.shape != flat[0].shape for t in flat
    ):
        shapes = [[t.shape for t in ts] for ts in per_gate]
        raise ShapeError(f"hop filters disagree in shape: {shapes}")
    if e1.ndim != 2 or e1.shape != e2.shape:
        raise ShapeError(f"diffusion factors must share one N x L shape: {e1.shape}, {e2.shape}")
    gates = len(per_gate)
    if z.ndim < 3 or z.shape[0] not in (1, gates):
        raise ShapeError(f"signal {z.shape} needs a leading gate axis of 1 or {gates}")
    if z.shape[1] != e1.shape[0]:
        raise ShapeError(f"signal {z.shape} does not have the factors' {e1.shape[0]} rows")
    if z.shape[-1] != flat[0].shape[0]:
        raise ShapeError(f"signal width {z.shape} does not match filter {flat[0].shape}")
    (n, rank), (f, beta), k = e1.shape, flat[0].shape, len(per_gate[0]) - 1
    zgates = z.shape[0]
    b = z.size // (zgates * n * f)
    zg = z.data.reshape(zgates, n, b * f)
    th = [np.stack([ts[i].data for ts in per_gate]) for i in range(k + 1)]  # (gates, F, beta)

    def rows(x):  # (., N, B*F) -> (., N*B, F), a free view
        return x.reshape(x.shape[0], -1, f)

    def onto(x, count):  # sum the gate axis away where the operand is shared
        return x if x.shape[0] == count else x.sum(axis=0, keepdims=True)

    out = rows(zg) @ th[0]
    if k:
        e1d, e2d = e1.data, e2.data
        g = e2d.T @ e1d
        ts = [e2d.T @ zg]
        for _ in range(k - 1):
            ts.append(g @ ts[-1])
        u = rows(ts[0]) @ th[1]
        for t, theta in zip(ts[1:], th[2:]):
            u += rows(t) @ theta
        out += (e1d @ u.reshape(gates, rank, b * beta)).reshape(out.shape)

    def vjp(grad):
        gf = grad.reshape(gates, n * b, beta)
        g_th = [_t(rows(zg)) @ gf]
        gz = onto(gf @ _t(th[0]), zgates)
        ge1, ge2 = np.zeros(e1.shape), np.zeros(e2.shape)
        if k:
            gn = gf.reshape(gates, n, b * beta)
            ge1 += (gn @ _t(u.reshape(gates, rank, b * beta))).sum(axis=0)
            gu = (e1d.T @ gn).reshape(gates, rank * b, beta)
            g_th += [_t(rows(t)) @ gu for t in ts]
            gts = [onto(gu @ _t(theta), zgates).reshape(zgates, rank, b * f) for theta in th[1:]]
            acc = gts[k - 1]
            gg = np.zeros((rank, rank))
            for i in range(k - 2, -1, -1):
                gg += (acc @ _t(ts[i])).sum(axis=0)
                acc = gts[i] + g.T @ acc
            ge1 += e2d @ gg
            ge2 += (zg @ _t(acc)).sum(axis=0) + e1d @ gg.T
            gz += rows(e2d @ acc)
        g_flat = [g_th[i][j] for j in range(gates) for i in range(k + 1)]
        return (gz.reshape(z.shape), ge1, ge2, *g_flat)

    shape = (gates,) + z.shape[1:-1] + (beta,)
    return _make(out.reshape(shape), (z, e1, e2, *flat), vjp)


def _t(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def level_weights(zs: Sequence[np.ndarray], w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Softmax over levels of the linear scores <w_g, z_m[g, :, s, :]> + b_g.

    `zs` holds M node-major arrays (G, N, S, beta), `w` is (G, N, beta) and
    `b` is (G,). Returns the weights as (G, M, S): per gate and sample, a
    point on the simplex over the M levels.
    """
    scores = np.stack([np.einsum("gnsj,gnj->gs", z, w) for z in zs], axis=1) + b[:, None, None]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def level_attention(zs: Sequence[Tensor], ws: Sequence[Tensor], bs: Sequence[Tensor]) -> Tensor:
    """Attention-weighted sum of M same-shaped level outputs, per gate.

    Each z_m is node-major behind a gate axis, (G, N, ..., beta), and gate g
    is scored by its own map: `ws[g]` is (N*beta) x 1 and `bs[g]` is (1,).
    Per gate and sample, level m is scored by the linear map
    w_g . vec(z_m[g]) + b_g, the scores are normalized by a softmax over
    levels, and the output is the weighted sum of the z_m. The bias adds
    the same value to every level's score, which the softmax ignores, so
    its gradient is exactly zero.
    """
    zs = [_as_tensor(z) for z in zs]
    ws = [_as_tensor(x) for x in ws]
    bs = [_as_tensor(x) for x in bs]
    if not zs:
        raise ShapeError("no level outputs to attend over")
    shape = zs[0].shape
    if any(z.shape != shape for z in zs):
        raise ShapeError(f"level outputs disagree in shape: {[z.shape for z in zs]}")
    if len(shape) < 3 or shape[0] != len(ws) or len(bs) != len(ws):
        raise ShapeError(f"level outputs {shape} do not fit {len(ws)} scoring maps")
    n, beta = shape[1], shape[-1]
    if any(x.shape != (n * beta, 1) for x in ws) or any(x.shape != (1,) for x in bs):
        raise ShapeError(f"scoring maps {[x.shape for x in ws]} do not fit outputs {shape}")
    gates = len(ws)
    zg = [z.data.reshape(gates, n, -1, beta) for z in zs]
    wg = np.stack([x.data.reshape(n, beta) for x in ws])
    alpha = level_weights(zg, wg, np.concatenate([x.data for x in bs]))
    weights = alpha[:, :, None, :, None]
    out = zg[0] * weights[:, 0]
    term = np.empty_like(out)
    for m in range(1, len(zs)):
        out += np.multiply(zg[m], weights[:, m], out=term)

    def vjp(grad):
        gh = grad.reshape(out.shape)
        galpha = np.stack([np.einsum("gnsj,gnsj->gs", gh, z) for z in zg], axis=1)
        gs = alpha * (galpha - (galpha * alpha).sum(axis=1, keepdims=True))
        gzs = [
            gh * weights[:, m] + gs[:, m, None, :, None] * wg[:, :, None, :]
            for m in range(len(zs))
        ]
        gw = sum(np.einsum("gs,gnsj->gnj", gs[:, m], z) for m, z in enumerate(zg))
        return (
            *(x.reshape(shape) for x in gzs),
            *(x.reshape(n * beta, 1) for x in gw),
            *(np.zeros(1) for _ in bs),
        )

    return _make(out.reshape(shape), (*zs, *ws, *bs), vjp)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the axes of `a`: output axis i is input axis axes[i]."""
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"axes {axes} do not permute the {a.ndim} axes of shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    return _make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),))


def take(a: Tensor, index: int) -> Tensor:
    """The slice a[index] along the leading axis."""
    a = _as_tensor(a)

    def vjp(g):
        full = np.zeros(a.shape)
        full[index] = g
        return (full,)

    return _make(a.data[index], (a,), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _make(out_data, tuple(tensors), vjp)


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    return tuple(ax % ndim for ax in axes)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axis(axis, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)
    in_shape = a.shape

    def vjp(g):
        if axes is not None and not keepdims:
            kshape = list(in_shape)
            for ax in axes:
                kshape[ax] = 1
            g = g.reshape(kshape)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _make(out_data, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axis(axis, a.ndim)
    count = a.size if axes is None else int(np.prod([a.shape[ax] for ax in axes]))
    out_data = a.data.mean(axis=axes, keepdims=keepdims)
    in_shape = a.shape

    def vjp(g):
        if axes is not None and not keepdims:
            kshape = list(in_shape)
            for ax in axes:
                kshape[ax] = 1
            g = g.reshape(kshape)
        return (np.broadcast_to(g / count, in_shape).copy(),)

    return _make(out_data, (a,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # where(x >= 0, 1, e) / (1 + e) with e = exp(-|x|), which never overflows;
    # as e <= 1, the numerator is max(e, x >= 0). Computed in place.
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, x >= 0, out=np.empty_like(x))
    e += 1.0
    y /= e
    return y


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = _sigmoid(a.data)
    return _make(y, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: (g * (1.0 - y * y),))


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.sqrt(a.data)
    return _make(y, (a,), lambda g: (g / (2.0 * y),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along `axis`, stabilized by max-subtraction."""
    a = _as_tensor(a)
    ax = axis % a.ndim if a.ndim else 0
    if a.shape == () or a.shape[ax] == 0:
        raise ShapeError(f"softmax over an empty axis {axis} of shape {a.shape}")
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=ax, keepdims=True)),)

    return _make(y, (a,), vjp)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order walk over recorded parents."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node._parents is not None:
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
    return order


def backward(loss: Tensor) -> GradientMap:
    """Gradients of a scalar loss w.r.t. every participating parameter.

    Fan-out accumulates: a parameter used along several paths receives the
    sum of all path gradients.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any tensor with requires_grad=True")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    result: GradientMap = {}
    for node in reversed(_topo_order(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._parents is None:
            if node.requires_grad:
                result[node] = Tensor(g)
            continue
        parent_grads = node._vjp(g)
        for parent, pg in zip(node._parents, parent_grads):
            if not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = np.asarray(pg, dtype=np.float64) if acc is None else acc + pg
    return result


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

@dataclass
class GradCheckEntry:
    name: str
    max_rel_error: float
    worst_index: tuple[int, ...]


@dataclass
class GradCheckReport:
    tolerance: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return all(e.max_rel_error < self.tolerance for e in self.entries)

    def failures(self) -> list[GradCheckEntry]:
        return [e for e in self.entries if not e.max_rel_error < self.tolerance]

    def __str__(self) -> str:
        lines = [f"gradient check (tolerance {self.tolerance:g})"]
        for e in self.entries:
            mark = "ok  " if e.max_rel_error < self.tolerance else "FAIL"
            lines.append(f"  {mark} {e.name}: max rel error {e.max_rel_error:.3e} at {e.worst_index}")
        return "\n".join(lines)


def finite_difference_check(
    forward: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients of `forward()` against central differences.

    `forward` must be a deterministic closure over the given parameters and
    return a scalar Tensor. Failures are reported per parameter, never raised.
    The relative error denominator is floored at 1e-6 so near-zero gradients
    are compared absolutely at that scale.
    """
    analytic = backward(forward())
    report = GradCheckReport(tolerance=tolerance)
    for pname, p in params.items():
        a = analytic[p].data if p in analytic else np.zeros_like(p.data)
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                f_plus = forward().item()
                flat[i] = orig - step
                f_minus = forward().item()
                flat[i] = orig
                nflat[i] = (f_plus - f_minus) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-6)
        rel = np.abs(a - numeric) / denom
        worst = np.unravel_index(int(np.argmax(rel)), rel.shape) if rel.size else ()
        report.entries.append(GradCheckEntry(pname, float(rel.max(initial=0.0)), worst))
    return report
