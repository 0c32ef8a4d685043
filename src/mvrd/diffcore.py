"""Minimal reverse-mode autodiff over float64 numpy arrays.

Everything in this package that needs gradients runs through the small op set
below, ten ops in all. A whole multi-head attention block is one of them:
``attention`` projects its inputs to Q, K and V, runs softmax(Q K^T /
sqrt(d_k)) V with the heads as a batch axis, mixes the heads with W_O and
returns the block's mean over its queries inside a single op, so an attention
block records one node, and each of its weight gradients is one GEMM. ``linear``
also takes a stacked weight, one matrix per slot of a view axis, so a
per-view layer is one node too. Each forward op appends a record to a
thread-local tape; ``backward`` walks the tape in reverse and accumulates
gradients into ``Tensor.grad`` buffers, which ``pack_parameters`` can place
in one flat array per model. Gradients accumulate across calls; callers (the
optimizer) zero them between steps. The tape is freed after each backward
pass.

Wherever an op is documented for 1-D or 2-D inputs, the implementation also
accepts extra leading batch axes with the same semantics applied to the
trailing axes; this is what lets the trainer vectorize over a minibatch.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ContractError",
    "DimensionError",
    "GradCheckReport",
    "Parameter",
    "ParameterError",
    "Tensor",
    "ValidationError",
    "add",
    "attention",
    "backward",
    "concat",
    "cross_entropy",
    "grad_check",
    "linear",
    "make_parameter",
    "mean",
    "no_grad",
    "pack_parameters",
    "parameter_seed",
    "relu",
    "reshape",
    "scale",
    "tempered_kl",
    "zero_grads",
]


class DimensionError(ValueError):
    """Operand shapes are incompatible with the op's contract."""


class ParameterError(ValueError):
    """A scalar argument (temperature, step size, ...) is out of range."""


class ValidationError(ValueError):
    """Input values violate a documented precondition (e.g. a ragged batch)."""


class ContractError(RuntimeError):
    """An op was used outside its documented calling contract."""


REL_ERR_FLOOR = 1e-8


class _EngineState(threading.local):
    def __init__(self):
        self.tape: list[tuple[Tensor, object]] = []
        self.grad_enabled = True


_state = _EngineState()


class no_grad:
    """Context manager that disables tape recording (pure inference)."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """Shape-tagged array of 64-bit reals with an optional gradient slot."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.array(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.values) if self.requires_grad else None

    @classmethod
    def _wrap(cls, values: np.ndarray, requires_grad: bool) -> "Tensor":
        t = cls.__new__(cls)
        t.values = values
        t.requires_grad = requires_grad
        t.grad = np.zeros_like(values) if requires_grad else None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter:
    """Named trainable tensor; init is fully determined by (scheme, seed, shape)."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, tensor: Tensor):
        if not tensor.requires_grad:
            raise ContractError(f"parameter {name!r} must require gradients")
        self.name = name
        self.tensor = tensor

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


def parameter_seed(master_seed: int, name: str) -> int:
    """Stable per-name seed so init does not depend on construction order."""
    digest = hashlib.blake2b(f"{master_seed}:{name}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def make_parameter(name: str, shape: tuple[int, ...], scheme: str, seed: int) -> Parameter:
    if scheme == "xavier_uniform":
        if len(shape) != 2:
            raise ParameterError(f"xavier_uniform needs a 2-D shape, got {shape}")
        fan_in, fan_out = shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        values = np.random.default_rng(seed).uniform(-limit, limit, size=shape)
    elif scheme == "zeros":
        values = np.zeros(shape)
    else:
        raise ParameterError(f"unknown init scheme {scheme!r}")
    return Parameter(name, Tensor(values, requires_grad=True))


def zero_grads(params) -> None:
    for p in params:
        p.tensor.zero_grad()


def pack_parameters(params) -> tuple[np.ndarray, np.ndarray]:
    """One flat array of the values of ``params`` and one of their gradients, in
    order; each tensor's ``values`` and ``grad`` become views of its slice."""
    tensors = [p.tensor for p in params]
    values = np.concatenate([t.values.reshape(-1) for t in tensors])
    grads = np.concatenate([t.grad.reshape(-1) for t in tensors])
    bounds = np.cumsum([0] + [t.values.size for t in tensors])
    for t, lo, hi in zip(tensors, bounds, bounds[1:]):
        t.values, t.grad = values[lo:hi].reshape(t.shape), grads[lo:hi].reshape(t.shape)
    return values, grads


# ---------------------------------------------------------------------------
# op plumbing


def _tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Parameter):
        return x.tensor
    return Tensor(x)


def _emit(values: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    requires = _state.grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(values, requires)
    if requires:
        _state.tape.append((out, backward_fn))
    return out


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# ops


def linear(x, weight, bias) -> Tensor:
    """x @ W + b with b broadcast over all leading axes of x.

    A stacked W (V, n_in, n_out) with b (V, n_out) maps slot v of x's axis -2,
    of length V, through W[v] and b[v]; a 2-D W is the one-slot case. Each
    product is one GEMM per slot over all rows of x.
    """
    x, w, b = _tensor(x), _tensor(weight), _tensor(bias)
    if w.ndim not in (2, 3) or b.shape != w.shape[:-2] + w.shape[-1:]:
        raise DimensionError(f"linear parameter shapes disagree: W{w.shape}, b{b.shape}")
    slots = 1 if w.ndim == 2 else w.shape[0]
    n_in, n_out = w.shape[-2:]
    if x.ndim < w.ndim - 1 or x.shape[-1] != n_in or (w.ndim == 3 and x.shape[-2] != slots):
        raise DimensionError(f"linear input {x.shape} does not match W{w.shape}")
    # slot-major views of (rows, slots, features) arrays: (V, N, features)
    x3 = x.values.reshape(-1, slots, n_in).swapaxes(0, 1)
    w3 = w.values.reshape(slots, n_in, n_out)
    out = np.empty((x3.shape[1], slots, n_out))
    np.matmul(x3, w3, out=out.swapaxes(0, 1))
    out += b.values.reshape(slots, n_out)

    def backward_fn(g):
        g3 = g.reshape(-1, slots, n_out).swapaxes(0, 1)
        if x.requires_grad:
            gx = np.empty((x3.shape[1], slots, n_in))
            np.matmul(g3, _swap(w3), out=gx.swapaxes(0, 1))
            x.grad += gx.reshape(x.shape)
        if w.requires_grad:
            w.grad += np.matmul(_swap(x3), g3).reshape(w.shape)
        if b.requires_grad:
            b.grad += g3.sum(axis=1).reshape(b.shape)

    return _emit(out.reshape(x.shape[:-1] + (n_out,)), (x, w, b), backward_fn)


def add(a, b) -> Tensor:
    """Element-wise sum of two same-shape tensors."""
    a, b = _tensor(a), _tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add shapes disagree: {a.shape} vs {b.shape}")
    values = a.values + b.values

    def backward_fn(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g

    return _emit(values, (a, b), backward_fn)


def scale(x, c: float) -> Tensor:
    """Multiply every entry by the scalar c."""
    x = _tensor(x)
    c = float(c)
    values = x.values * c

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g * c

    return _emit(values, (x,), backward_fn)


def relu(x) -> Tensor:
    x = _tensor(x)
    values = np.maximum(x.values, 0.0)

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g * (x.values > 0.0)

    return _emit(values, (x,), backward_fn)


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate along the last axis (or an explicit axis)."""
    ts = [_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat of zero tensors")
    axis = axis if axis >= 0 else ts[0].ndim + axis
    for t in ts[1:]:
        if t.ndim != ts[0].ndim or any(
            i != axis and t.shape[i] != ts[0].shape[i] for i in range(t.ndim)
        ):
            raise DimensionError(
                f"concat shapes disagree off axis {axis}: {[t.shape for t in ts]}"
            )
    values = np.concatenate([t.values for t in ts], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def backward_fn(g):
        for t, piece in zip(ts, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.grad += piece

    return _emit(values, tuple(ts), backward_fn)


def reshape(x, shape) -> Tensor:
    x = _tensor(x)
    values = x.values.reshape(shape)

    def backward_fn(g):
        if x.requires_grad:
            x.grad += g.reshape(x.shape)

    return _emit(values, (x,), backward_fn)


def mean(x, axis: int | None = None) -> Tensor:
    """Mean over one axis, or over all entries when axis is None."""
    x = _tensor(x)
    if axis is None:
        n = x.values.size
        values = x.values.mean()

        def backward_fn(g):
            if x.requires_grad:
                x.grad += np.full(x.shape, g / n)

    else:
        ax = axis if axis >= 0 else x.ndim + axis
        n = x.shape[ax]
        values = x.values.mean(axis=ax)

        def backward_fn(g):
            if x.requires_grad:
                x.grad += np.expand_dims(g, ax) / n

    return _emit(np.asarray(values), (x,), backward_fn)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """log softmax(z) over the last axis, max-subtracted: finite for finite z."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def attention(x_q, x_kv, w_q, w_k, w_v, w_o, heads: int) -> Tensor:
    """The mean over the queries of one multi-head attention block: queries
    from x_q (.., L_q, d_q), keys and values from x_kv (.., L_kv, d_kv), output
    (.., n_out).

    Q = x_q W_Q, K = x_kv W_K and V = x_kv W_V, each (.., L, W). Head h reads
    columns [h*d_k, (h+1)*d_k) with d_k = W/heads and computes S_h V_h with
    S_h = softmax(Q_h K_h^T / sqrt(d_k)); the heads are concatenated and mixed
    by W_O (W, n_out). The mean is linear, so mean_i((S V)_i) W_O =
    (mean_i S_i) V W_O, and no (.., L_q, W) block output is formed.

    One tape node. The heads are a batch axis of (.., heads, L, d_k) views: each
    product is one batched matmul, over one (.., heads, L_q, L_kv) score block,
    and the head gradients are written straight into (.., L, W) arrays. K^T is
    copied to a contiguous array once and the gradient of Q reads K from it, so
    results are bitwise equal to a loop over the heads on contiguous copies at
    d_k >= 4; the strided K view rounds differently at L_q = 1 (fusion), and
    with two or more heads of d_k <= 3, the strided V does at L_kv >= 4. Each
    weight gradient is one GEMM over all rows.
    """
    x_q, x_kv, w_q, w_k, w_v, w_o = (_tensor(t) for t in (x_q, x_kv, w_q, w_k, w_v, w_o))
    if x_q.ndim < 2 or x_kv.ndim != x_q.ndim or x_kv.shape[:-2] != x_q.shape[:-2]:
        raise DimensionError(f"attention inputs disagree: x_q{x_q.shape}, x_kv{x_kv.shape}")
    if (
        any(w.ndim != 2 for w in (w_q, w_k, w_v, w_o))
        or w_k.shape[1] != w_q.shape[1]
        or w_v.shape != w_k.shape
        or w_o.shape[0] != w_q.shape[1]
    ):
        raise DimensionError(
            f"attention weights disagree: W_Q{w_q.shape}, W_K{w_k.shape}, W_V{w_v.shape}, W_O{w_o.shape}"
        )
    if x_q.shape[-1] != w_q.shape[0]:
        raise DimensionError(f"query dim {x_q.shape[-1]} does not match W_Q {w_q.shape}")
    if x_kv.shape[-1] != w_k.shape[0]:
        raise DimensionError(f"key/value dim {x_kv.shape[-1]} does not match W_K {w_k.shape}")
    width = w_q.shape[1]
    if not isinstance(heads, int) or heads < 1 or width % heads:
        raise DimensionError(f"attention heads={heads!r} must be an integer dividing width {width}")
    lead, l_q = x_q.shape[:-2], x_q.shape[-2]
    d_k = width // heads
    inv_scale = float(1.0 / np.sqrt(d_k))

    def split(a):  # (.., L, W) -> a (.., heads, L, d_k) view
        return a.reshape(a.shape[:-1] + (heads, d_k)).swapaxes(-2, -3)

    q_h = split(np.matmul(x_q.values, w_q.values))
    k_t = _swap(split(np.matmul(x_kv.values, w_k.values))).copy()  # contiguous: see the docstring
    v_h = split(np.matmul(x_kv.values, w_v.values))
    s = np.matmul(q_h, k_t)  # the softmax of the scaled scores, in place
    s *= inv_scale
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    s_bar = s.mean(axis=-2, keepdims=True)
    # (rows, W): at one pooled query, (.., heads, 1, d_k) holds the heads side by side
    pooled = np.matmul(s_bar, v_h).reshape(-1, width)

    def backward_fn(g):
        g = g.reshape(-1, w_o.shape[1])
        if w_o.requires_grad:
            w_o.grad += pooled.T @ g
        g_heads = (g @ w_o.values.T).reshape(lead + (heads, 1, d_k))
        g_q, g_v = np.empty(x_q.shape[:-1] + (width,)), np.empty(x_kv.shape[:-1] + (width,))
        g_k = np.empty_like(g_v)
        np.matmul(_swap(s_bar), g_heads, out=split(g_v))
        # dL/dS is the same row for every query; the softmax's gradient in place
        g_s = np.matmul(g_heads, _swap(v_h)) / l_q
        g_scores = g_s * s
        np.subtract(g_s, g_scores.sum(axis=-1, keepdims=True), out=g_scores)
        g_scores *= s
        g_scores *= inv_scale
        np.matmul(g_scores, _swap(k_t), out=split(g_q))
        np.matmul(_swap(q_h), g_scores, out=_swap(split(g_k)))
        # V, then K, then Q: x_kv.grad sums its two paths in this fixed order
        for x, w, g_proj in ((x_kv, w_v, g_v), (x_kv, w_k, g_k), (x_q, w_q, g_q)):
            if x.requires_grad:
                x.grad += np.matmul(g_proj, _swap(w.values))
            if w.requires_grad:
                w.grad += x.values.reshape(-1, w.shape[0]).T @ g_proj.reshape(-1, w.shape[1])

    out = (pooled @ w_o.values).reshape(lead + (w_o.shape[1],))
    return _emit(out, (x_q, x_kv, w_q, w_k, w_v, w_o), backward_fn)


def tempered_kl(student, teacher, tau: float) -> Tensor:
    """KL(softmax(teacher/tau) || softmax(student/tau)) over the last axis, one
    value per row.

    ``teacher`` is a plain array of the student's shape, a fixed target like
    ``cross_entropy``'s labels: the gradient goes into the student only,
    (q - p) / tau. Both sides are log-softmaxes, so no probability is clamped
    and a teacher probability that underflows to 0 adds exactly 0.
    """
    x = _tensor(student)
    tau = float(tau)
    if not tau > 0.0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    t = np.asarray(teacher, dtype=np.float64)
    if t.shape != x.shape or x.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"tempered_kl shapes disagree: student {x.shape} vs teacher {t.shape}")
    log_p = _log_softmax(t / tau)
    log_q = _log_softmax(x.values / tau)
    p = np.exp(log_p)
    values = (p * (log_p - log_q)).sum(axis=-1)

    def backward_fn(g):
        if x.requires_grad:
            x.grad += np.expand_dims(g, -1) * (np.exp(log_q) - p) / tau

    return _emit(np.asarray(values), (x,), backward_fn)


def cross_entropy(logits, y) -> Tensor:
    """-log_softmax(logits)[y]; batched logits give one loss per row."""
    x = _tensor(logits)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise DimensionError(f"cross_entropy needs a class axis, got {x.shape}")
    n_classes = x.shape[-1]
    y_arr = np.asarray(y, dtype=np.int64)
    if y_arr.shape != x.shape[:-1]:
        raise DimensionError(f"labels {y_arr.shape} do not match logits {x.shape}")
    if np.any(y_arr < 0) or np.any(y_arr >= n_classes):
        raise IndexError(f"class index out of range [0, {n_classes})")
    log_soft = _log_softmax(x.values)
    values = -np.take_along_axis(log_soft, y_arr[..., None], axis=-1).squeeze(-1)

    def backward_fn(g):
        if x.requires_grad:
            soft = np.exp(log_soft)
            onehot = np.zeros_like(x.values)
            np.put_along_axis(onehot, y_arr[..., None], 1.0, axis=-1)
            x.grad += np.expand_dims(g, -1) * (soft - onehot)

    return _emit(np.asarray(values), (x,), backward_fn)


# ---------------------------------------------------------------------------
# backward + gradient checking


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every reachable grad buffer.

    The loss must be a scalar produced by ops above. The recording tape is
    freed afterwards; gradients add onto whatever is already in the buffers.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = _state.tape
    _state.tape = []
    idx = None
    for i in range(len(tape) - 1, -1, -1):
        if tape[i][0] is loss:
            idx = i
            break
    if idx is None:
        return  # loss is a constant: nothing reachable
    loss.grad[...] = 1.0
    for out, backward_fn in reversed(tape[: idx + 1]):
        if out.grad.any():
            backward_fn(out.grad)


@dataclass
class GradCheckReport:
    """Comparison of backward gradients against central finite differences."""

    max_rel_error: float
    per_parameter: dict[str, float]
    deterministic: bool
    step: float
    tolerance: float
    entries_checked: int = 0
    worst: list[tuple[str, int, float, float, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.deterministic and self.max_rel_error < self.tolerance


def _rel_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_ERR_FLOOR)


def grad_check(f, params, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Check backward() against (f(p+h) - f(p-h)) / 2h for every parameter entry.

    f must be a deterministic zero-argument callable that rebuilds the forward
    pass and returns a scalar Tensor; non-determinism is detected and flagged.
    """
    if not (1e-7 <= h <= 1e-3):
        raise ParameterError(f"step h must lie in [1e-7, 1e-3], got {h}")
    params = list(params)

    with no_grad():
        v1 = f().item()
        v2 = f().item()
    deterministic = v1 == v2

    zero_grads(params)
    backward(f())
    analytic = {p.name: np.array(p.tensor.grad) for p in params}
    zero_grads(params)

    per_parameter: dict[str, float] = {}
    worst: list[tuple[str, int, float, float, float]] = []
    checked = 0
    for p in params:
        flat = p.tensor.values.reshape(-1)
        ana = analytic[p.name].reshape(-1)
        worst_here = 0.0
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            with no_grad():
                f_plus = f().item()
            flat[i] = saved - h
            with no_grad():
                f_minus = f().item()
            flat[i] = saved
            numeric = float((f_plus - f_minus) / (2.0 * h))
            err = float(_rel_error(ana[i], numeric))
            checked += 1
            if err > worst_here:
                worst_here = err
            if err >= tol:
                worst.append((p.name, i, float(ana[i]), numeric, err))
        per_parameter[p.name] = worst_here
    max_rel = max(per_parameter.values(), default=0.0)
    worst.sort(key=lambda e: -e[4])
    return GradCheckReport(
        max_rel_error=max_rel,
        per_parameter=per_parameter,
        deterministic=deterministic,
        step=h,
        tolerance=tol,
        entries_checked=checked,
        worst=worst[:10],
    )
