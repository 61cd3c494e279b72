"""Seeded gradient-check catalog shared by the unit tests and the
acceptance gate: every engine primitive and the closed-form cost
gradient, each exercised over at least ten seeded cases against central
finite differences, plus ``grad_check``, the finite-difference oracle
they run against."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from rcnas import autodiff as ad
from rcnas import cells
from rcnas.autodiff import ShapeError, Tape, Tensor
from rcnas.cost import CostScope, CostTable, EdgeCost, cost_gradient, expected_cost, scope_edges

H = 1e-4
TOL = 1e-5


class GradCheckError(RuntimeError):
    """The function under test raised while being finite-differenced."""

    def __init__(self, coordinate, message: str):
        super().__init__(f"at coordinate {coordinate}: {message}")
        self.coordinate = coordinate


@dataclass
class GradCheckReport:
    """Result of comparing analytic gradients against central differences.

    Relative errors are |analytic - numeric| / max(|analytic|, |numeric|, 1),
    i.e. floored at unit scale so near-zero gradients are compared absolutely.
    """

    passed: bool
    max_rel_err: float
    tol: float
    analytic: np.ndarray
    numeric: np.ndarray
    rel_err: np.ndarray
    failures: list = field(default_factory=list)

    def __str__(self) -> str:
        if self.passed:
            return f"grad_check passed: max rel err {self.max_rel_err:.3e} <= {self.tol:.1e}"
        lines = [f"grad_check FAILED: max rel err {self.max_rel_err:.3e} > {self.tol:.1e}"]
        for idx, a, n, e in self.failures[:10]:
            lines.append(f"  coord {idx}: analytic {a:.6e} vs numeric {n:.6e} (rel {e:.3e})")
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-4,
    tol: float = 1e-5,
) -> GradCheckReport:
    """Check d f(x) / d x against central finite differences.

    ``f`` must map a Tensor to a scalar Tensor and be evaluated fresh on
    every call (it is invoked 2*size(x) + 1 times).
    """
    x0 = np.asarray(x.data, dtype=np.float64).copy()

    xt = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(xt)
    if y.data.size != 1:
        raise ShapeError("grad_check", f"f must return a scalar, got shape {y.shape}")
    tape.backward(y)
    analytic = xt.grad.copy() if xt.grad is not None else np.zeros_like(x0)

    numeric = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        try:
            xp = x0.copy()
            xp[idx] += h
            fp = f(Tensor(xp)).item()
            xm = x0.copy()
            xm[idx] -= h
            fm = f(Tensor(xm)).item()
        except Exception as e:
            raise GradCheckError(idx, str(e)) from e
        numeric[idx] = (fp - fm) / (2.0 * h)
        it.iternext()

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    rel = np.abs(analytic - numeric) / denom
    max_err = float(rel.max()) if rel.size else 0.0
    failures = []
    if max_err > tol:
        for idx in zip(*np.nonzero(rel > tol)):
            failures.append((idx, float(analytic[idx]), float(numeric[idx]), float(rel[idx])))
    return GradCheckReport(
        passed=max_err <= tol,
        max_rel_err=max_err,
        tol=tol,
        analytic=analytic,
        numeric=numeric,
        rel_err=rel,
        failures=failures,
    )


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _proj(rng: np.random.Generator, shape) -> Tensor:
    """Fixed random projection so the scalarized loss has generic gradients."""
    return Tensor(rng.standard_normal(shape))


def _scalarize(out: Tensor, r: Tensor) -> Tensor:
    return ad.tensor_sum(ad.mul(out, r))


def _case_relu(seed):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal((2, 3, 5, 5)))
    r = None

    def f(x):
        nonlocal r
        out = ad.relu(x)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    return f, x0


_CONV_CONFIGS = [
    # (c_in, c_out, k, stride, padding, dilation, groups)
    (3, 4, 3, 1, 1, 1, 1),
    (4, 4, 3, 2, 1, 1, 1),
    (4, 6, 1, 1, 0, 1, 1),
    (4, 4, 3, 1, 2, 2, 1),
    (4, 4, 5, 1, 4, 2, 1),
    (4, 8, 1, 1, 0, 1, 2),
    (4, 4, 1, 1, 0, 1, 4),
    (4, 4, 3, 1, 1, 1, 4),  # depthwise
    (6, 6, 3, 2, 1, 1, 6),  # depthwise, strided
    (6, 6, 5, 1, 4, 2, 6),  # depthwise, dilated
    (2, 4, 3, 2, 1, 1, 2),
    (3, 3, 3, 1, 1, 1, 3),
    (4, 4, 5, 2, 4, 2, 4),  # depthwise, dilated, strided (reduce-cell dil_sep_conv_5x5)
    (4, 4, 5, 2, 2, 1, 4),  # depthwise 5x5, strided
    (4, 4, 1, 2, 0, 1, 1),  # 1x1 strided (factorized reduce)
]


def _conv_pair(seed, cfg, wrt):
    c_in, c_out, k, stride, padding, dilation, groups = cfg
    rng = _rng(seed)
    hw = 6 if stride == 1 else 6
    x_data = rng.standard_normal((2, c_in, hw, hw))
    w_data = rng.standard_normal((c_out, c_in // groups, k, k))
    r = None

    def run(x, w):
        nonlocal r
        out = ad.conv2d(x, w, stride=stride, padding=padding, dilation=dilation, groups=groups)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    if wrt == "x":
        return (lambda x: run(x, Tensor(w_data))), Tensor(x_data)
    return (lambda w: run(Tensor(x_data), w)), Tensor(w_data)


_CONV_BN_CONFIGS = [
    # (c_in, c_out, k, stride, padding, dilation, groups)
    (4, 4, 1, 1, 0, 1, 1),  # pointwise
    (4, 6, 1, 1, 0, 1, 1),  # pointwise, c_in != c_out
    (4, 4, 3, 1, 2, 2, 1),  # dense dilated 3x3 (dil_conv_3x3)
    (4, 8, 3, 2, 2, 2, 1),  # dense dilated 3x3, stride 2, c_in != c_out
    (3, 5, 3, 2, 1, 1, 1),  # dense 3x3, stride 2, c_in != c_out
    (4, 4, 1, 2, 0, 1, 1),  # pointwise, stride 2
]


def _case_conv_bn(seed, cfg, wrt):
    c_in, c_out, k, stride, padding, dilation, groups = cfg
    rng = _rng(seed)
    data = {
        "x": rng.standard_normal((3, c_in, 6, 6)),
        "w": rng.standard_normal((c_out, c_in // groups, k, k)),
        "gamma": 0.5 + rng.random(c_out),
        "beta": rng.standard_normal(c_out),
    }
    r = None

    def f(t):
        nonlocal r
        args = [t if name == wrt else Tensor(d) for name, d in data.items()]
        out = ad.conv_bn(*args, stride=stride, padding=padding, dilation=dilation, groups=groups)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    return f, Tensor(data[wrt])


def _case_batch_norm(seed, wrt):
    rng = _rng(seed)
    c = 4
    x_data = rng.standard_normal((3, c, 4, 4))
    g_data = 0.5 + rng.random(c)
    b_data = rng.standard_normal(c)
    r = None

    def run(x, g, b):
        nonlocal r
        out = ad.batch_norm(x, g, b)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    if wrt == "x":
        return (lambda x: run(x, Tensor(g_data), Tensor(b_data))), Tensor(x_data)
    if wrt == "gamma":
        return (lambda g: run(Tensor(x_data), g, Tensor(b_data))), Tensor(g_data)
    return (lambda b: run(Tensor(x_data), Tensor(g_data), b)), Tensor(b_data)


def _case_max_pool(seed, stride):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal((2, 3, 6, 6)) * 3.0)  # spread values: no FD ties
    r = None

    def f(x):
        nonlocal r
        out = ad.max_pool2d(x, 3, stride=stride, padding=1)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    return f, x0


def _case_avg_pool(seed, stride):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal((2, 3, 6, 6)))
    r = None

    def f(x):
        nonlocal r
        out = ad.avg_pool2d(x, 3, stride=stride, padding=1)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    return f, x0


def _case_gap(seed):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal((2, 5, 4, 4)))
    r = None

    def f(x):
        nonlocal r
        out = ad.global_avg_pool(x)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    return f, x0


def _case_concat(seed):
    rng = _rng(seed)
    other = Tensor(rng.standard_normal((2, 3, 4, 4)))
    x0 = Tensor(rng.standard_normal((2, 2, 4, 4)))
    r = None

    def f(x):
        nonlocal r
        out = ad.concat([other, x], axis=1)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    return f, x0


def _case_add(seed, wrt_first):
    rng = _rng(seed)
    a_data = rng.standard_normal((2, 3, 4, 4))
    b_data = rng.standard_normal((2, 3, 4, 4))
    r = _proj(_rng(seed + 999), a_data.shape)

    def f(t):
        out = ad.add(t, Tensor(b_data)) if wrt_first else ad.add(Tensor(a_data), t)
        return _scalarize(out, r)

    return f, Tensor(a_data if wrt_first else b_data)


def _case_mul(seed, wrt_first):
    rng = _rng(seed)
    a_data = rng.standard_normal((3, 4))
    b_data = rng.standard_normal((3, 4))
    r = _proj(_rng(seed + 999), a_data.shape)

    def f(t):
        out = ad.mul(t, Tensor(b_data)) if wrt_first else ad.mul(Tensor(a_data), t)
        return _scalarize(out, r)

    return f, Tensor(a_data if wrt_first else b_data)


def _case_scale(seed):
    rng = _rng(seed)
    alpha = float(rng.uniform(-2, 2))
    x0 = Tensor(rng.standard_normal((2, 3, 3)))
    r = _proj(_rng(seed + 999), x0.shape)

    def f(x):
        return _scalarize(ad.scale(x, alpha), r)

    return f, x0


def _case_crop(seed):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal((2, 3, 5, 5)))
    r = None

    def f(x):
        nonlocal r
        out = ad.crop_offset(x, 1, 1)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    return f, x0


def _case_shuffle(seed):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal((2, 4, 3, 3)))
    r = _proj(_rng(seed + 999), x0.shape)

    def f(x):
        return _scalarize(ad.channel_shuffle(x, 2), r)

    return f, x0


def _case_weighted_sum(seed, wrt):
    rng = _rng(seed)
    n = 3
    xs_data = [rng.standard_normal((2, 2, 3, 3)) for _ in range(n)]
    w_data = rng.standard_normal(n)
    r = _proj(_rng(seed + 999), xs_data[0].shape)

    if wrt == "weights":

        def f(w):
            return _scalarize(ad.weighted_sum(w, [Tensor(d) for d in xs_data]), r)

        return f, Tensor(w_data)

    def f(x):
        parts = [x if i == 0 else Tensor(xs_data[i]) for i in range(n)]
        return _scalarize(ad.weighted_sum(Tensor(w_data), parts), r)

    return f, Tensor(xs_data[0])


def _case_linear(seed, wrt):
    rng = _rng(seed)
    x_data = rng.standard_normal((4, 5))
    w_data = rng.standard_normal((3, 5))
    b_data = rng.standard_normal(3)
    r = _proj(_rng(seed + 999), (4, 3))

    def run(x, w, b):
        return _scalarize(ad.linear(x, w, b), r)

    if wrt == "x":
        return (lambda x: run(x, Tensor(w_data), Tensor(b_data))), Tensor(x_data)
    if wrt == "w":
        return (lambda w: run(Tensor(x_data), w, Tensor(b_data))), Tensor(w_data)
    return (lambda b: run(Tensor(x_data), Tensor(w_data), b)), Tensor(b_data)


def _case_softmax(seed):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal(6) * 2)
    r = _proj(_rng(seed + 999), (6,))

    def f(x):
        return _scalarize(ad.softmax(x), r)

    return f, x0


def _case_softmax_part(seed):
    """The softmax of one row of a longer logits vector: the gradient is
    zero outside the row."""
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal(12) * 2)
    r = _proj(_rng(seed + 999), (5,))

    def f(x):
        return _scalarize(ad.softmax(x, slice(3, 8)), r)

    return f, x0


def _case_softmax_dot_u(seed):
    """Composite from the cost model: softmax(theta) . u as one chain."""
    rng = _rng(seed)
    u = Tensor(rng.uniform(0, 100, size=5))
    x0 = Tensor(rng.standard_normal(5))

    def f(x):
        return ad.tensor_sum(ad.mul(ad.softmax(x), u))

    return f, x0


def _case_cross_entropy(seed):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal((4, 5)) * 2)
    labels = rng.integers(0, 5, size=4)

    def f(x):
        return ad.cross_entropy_logits(x, labels)

    return f, x0


def _case_tensor_sum(seed):
    rng = _rng(seed)
    x0 = Tensor(rng.standard_normal((3, 4, 2)))

    def f(x):
        return ad.tensor_sum(x)

    return f, x0


def _case_chain(seed):
    """Random three-primitive chain: conv -> relu -> pool -> scalar."""
    rng = _rng(seed)
    x_data = rng.standard_normal((2, 3, 6, 6))
    w = Tensor(rng.standard_normal((4, 3, 3, 3)))
    r = None

    def f(x):
        nonlocal r
        out = ad.avg_pool2d(ad.relu(ad.conv2d(x, w, stride=1, padding=1)), 3, stride=2, padding=1)
        if r is None:
            r = _proj(_rng(seed + 999), out.shape)
        return _scalarize(out, r)

    return f, Tensor(x_data)


def engine_cases() -> list[tuple[str, object, object]]:
    """(label, f, x) triples; ten or more per primitive."""
    cases = []
    for s in range(12):
        cases.append((f"relu[{s}]", *_case_relu(100 + s)))
    for i, cfg in enumerate(_CONV_CONFIGS):
        cases.append((f"conv2d_dx[{i}]", *_conv_pair(200 + i, cfg, "x")))
        cases.append((f"conv2d_dw[{i}]", *_conv_pair(230 + i, cfg, "w")))
    for s in range(4):
        for wrt in ("x", "gamma", "beta"):
            cases.append((f"batch_norm_{wrt}[{s}]", *_case_batch_norm(300 + s, wrt)))
    for i, cfg in enumerate(_CONV_BN_CONFIGS):
        for wrt in ("x", "w") if i % 2 else ("x", "w", "gamma", "beta"):
            cases.append((f"conv_bn_{wrt}[{i}]", *_case_conv_bn(320 + i, cfg, wrt)))
    for s in range(6):
        cases.append((f"max_pool2d_s1[{s}]", *_case_max_pool(400 + s, 1)))
        cases.append((f"max_pool2d_s2[{s}]", *_case_max_pool(410 + s, 2)))
    for s in range(5):
        cases.append((f"avg_pool2d_s1[{s}]", *_case_avg_pool(500 + s, 1)))
        cases.append((f"avg_pool2d_s2[{s}]", *_case_avg_pool(510 + s, 2)))
    for s in range(10):
        cases.append((f"global_avg_pool[{s}]", *_case_gap(600 + s)))
        cases.append((f"concat[{s}]", *_case_concat(700 + s)))
        cases.append((f"scale[{s}]", *_case_scale(800 + s)))
        cases.append((f"crop_offset[{s}]", *_case_crop(900 + s)))
        cases.append((f"channel_shuffle[{s}]", *_case_shuffle(1000 + s)))
        cases.append((f"softmax[{s}]", *_case_softmax(1100 + s)))
        cases.append((f"softmax_part[{s}]", *_case_softmax_part(1150 + s)))
        cases.append((f"softmax_dot_u[{s}]", *_case_softmax_dot_u(1200 + s)))
        cases.append((f"cross_entropy[{s}]", *_case_cross_entropy(1300 + s)))
        cases.append((f"tensor_sum[{s}]", *_case_tensor_sum(1400 + s)))
        cases.append((f"chain[{s}]", *_case_chain(1500 + s)))
    for s in range(5):
        cases.append((f"add_a[{s}]", *_case_add(1600 + s, True)))
        cases.append((f"add_b[{s}]", *_case_add(1610 + s, False)))
        cases.append((f"mul_a[{s}]", *_case_mul(1700 + s, True)))
        cases.append((f"mul_b[{s}]", *_case_mul(1710 + s, False)))
    for s in range(5):
        cases.append((f"weighted_sum_w[{s}]", *_case_weighted_sum(1800 + s, "weights")))
        cases.append((f"weighted_sum_x[{s}]", *_case_weighted_sum(1810 + s, "x")))
    for s in range(4):
        for wrt in ("x", "w", "b"):
            cases.append((f"linear_{wrt}[{s}]", *_case_linear(1900 + s, wrt)))
    return cases


def _random_cost_table(rng: np.random.Generator) -> tuple[CostTable, dict]:
    """A synthetic table over 1-2 kinds with random per-op costs."""
    n_kinds = int(rng.integers(1, 3))
    templates = {}
    entries = []
    theta = {}
    for k in range(n_kinds):
        kind = f"kind{k}"
        n_ops = int(rng.integers(3, 6))
        names = tuple(f"op{i}" for i in range(n_ops))
        tpl = cells.CellTemplate(n_inputs=2, n_intermediate=2, op_names=names, concat_output=True)
        templates[kind] = tpl
        for edge in tpl.edges():
            theta[(kind, edge)] = rng.standard_normal(n_ops)
    # multiple cells may share a kind ("owner" instances with distinct u)
    for kind, tpl in templates.items():
        for inst in range(int(rng.integers(1, 3))):
            for edge in tpl.edges():
                node = edge[1]
                u = rng.uniform(0, 50, size=(2, tpl.n_ops))
                entries.append(EdgeCost(f"{kind}.cell{inst}", kind, edge, node, u))
    table = CostTable(entries=entries, fixed=rng.uniform(0, 10, size=2), templates=templates)
    return table, theta


def cost_gradient_cases(n: int = 12) -> list[tuple[str, object]]:
    """Callables asserting closed-form cost gradients match FD, one per seed."""

    def make(seed: int, scope: CostScope):
        def check() -> float:
            rng = _rng(seed)
            table, theta = _random_cost_table(rng)
            frozen = scope_edges(theta, table.templates) if scope == CostScope.TOP_K else None
            grads = cost_gradient(theta, table, scope, frozen_scope=frozen)
            worst = 0.0
            for key in sorted(theta):
                g = grads[key]
                num = np.zeros_like(theta[key])
                for i in range(theta[key].size):
                    for sign, store in ((+1, 1), (-1, -1)):
                        shifted = {k: v.copy() for k, v in theta.items()}
                        shifted[key][i] += sign * H
                        phi = expected_cost(shifted, table, scope, frozen_scope=frozen)
                        num[i] += store * phi.sum()
                    num[i] /= 2 * H
                rel = np.abs(g.sum(axis=0) - num) / np.maximum.reduce(
                    [np.abs(g.sum(axis=0)), np.abs(num), np.ones_like(num)]
                )
                worst = max(worst, float(rel.max()))
            return worst

        return check

    out = []
    for s in range(n):
        scope = CostScope.FULL_DAG if s % 2 == 0 else CostScope.TOP_K
        out.append((f"cost_gradient_{scope.value}[{s}]", make(2000 + s, scope)))
    return out


def run_engine_suite(tol: float = TOL) -> tuple[int, list[str]]:
    """Run every engine case; returns (count, failure messages)."""
    failures = []
    cases = engine_cases()
    for label, f, x in cases:
        report = grad_check(f, x, h=H, tol=tol)
        if not report.passed:
            failures.append(f"{label}: {report}")
    return len(cases), failures


def run_cost_suite(tol: float = TOL) -> tuple[int, list[str]]:
    failures = []
    cases = cost_gradient_cases()
    for label, check in cases:
        worst = check()
        if worst > tol:
            failures.append(f"{label}: max rel err {worst:.3e} > {tol:.1e}")
    return len(cases), failures
