"""Spans around skewtmix's public functions, installed from outside the package.

``Tracer.install`` replaces each public function of a layer with a wrapper in
every ``skewtmix`` module namespace that holds it: a module that imported the
function by name (``bounds`` imports ``skewt_renyi``, ``cli`` imports
``sample_mixture``) gets the wrapper as well as the defining module, and
calls through a module (``specfn.student_t_cdf``) or between functions of one
module see it too. ``uninstall`` puts the originals back.

A span is (name, start, end, span id, parent id, request id, points), kept in
per-thread arrays until the run ends. A span opened on a worker thread with
no open span of its own takes the client thread's innermost open span as its
parent, so log densities evaluated on the Monte Carlo thread pool belong to
the estimator that asked for them.

Self time is a span's duration minus the union of its children's intervals;
the union matters when children run in parallel on pool threads.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from array import array

import numpy as np

FIELDS = ("name", "start", "end", "sid", "parent", "request", "points")


def _size(x) -> int:
    return 1 if isinstance(x, (int, float)) else int(np.size(x))


def _first_size(args, kwargs) -> int:
    return _size(args[0]) if args else _size(next(iter(kwargs.values())))


def _rows(args, kwargs) -> int:
    p, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    return _size(x) // p.dim


def _arg(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return int(sig.bind(*args, **kwargs).arguments[name])

    return get


# layer -> (module, function names). Points, where given, count the elements,
# rows or draws a call was asked for.
LAYERS = {
    "specfn": ("skewtmix.specfn", (
        "log_gamma", "digamma", "log_beta", "reg_inc_beta", "student_t_cdf", "student_t_logpdf",
    )),
    "linalg": ("skewtmix.linalg", (
        "cholesky", "log_det", "solve", "quad_form", "sqrt_spd", "solve_lower_batch", "solve_upper_batch",
    )),
    "distributions": ("skewtmix.distributions", (
        "derive_shape", "mt_logpdf", "skewt_logpdf", "mixture_logpdf", "skewt_mean", "skewt_cov",
        "mixture_mean", "mixture_cov", "sample_skewt", "sample_mixture", "component_seed",
    )),
    "entropy": ("skewtmix.entropy", (
        "mt_shannon", "mt_renyi", "power_integral_constant", "skew_correction", "skewt_shannon", "skewt_renyi",
    )),
    "bounds": ("skewtmix.bounds", (
        "composition_count", "shannon_bounds", "renyi_lower", "renyi_upper", "renyi_bounds",
        "renyi_large_alpha_approx",
    )),
    "mc": ("skewtmix.mc", ("mc_shannon", "mc_renyi", "is_renyi", "fat_proposal")),
    # config and reports are counted under cli.
    "cli": ("skewtmix.cli", ("main",)),
    "cli.config": ("skewtmix.config", ("load_config", "parse_config")),
    "cli.reports": ("skewtmix.reports", ("rows_to_csv", "rows_to_json", "rows_from_json")),
}
SPD_INIT = "linalg.SpdMatrix"
ENTROPY_CALLS = ("entropy.mt_shannon", "entropy.mt_renyi", "entropy.skewt_shannon", "entropy.skewt_renyi")
SAMPLERS = ("distributions.sample_mixture", "distributions.sample_skewt")
LOGPDFS = ("distributions.mt_logpdf", "distributions.skewt_logpdf", "distributions.mixture_logpdf")
ESTIMATORS = ("mc.mc_shannon", "mc.mc_renyi", "mc.is_renyi")


# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "specfn.t_cdf.calls": "count",
    "specfn.t_cdf.points": "count",
    "specfn.log_gamma.points": "count",
    "specfn.self_s": "s",
    "linalg.calls": "count",
    "linalg.self_s": "s",
    "linalg.sqrt_spd.calls": "count",
    "distributions.derive_shape.calls": "count",
    "distributions.sample.draws": "count",
    "distributions.sample.self_s": "s",
    "distributions.logpdf.points": "count",
    "distributions.logpdf.self_s": "s",
    "entropy.calls": "count",
    "entropy.self_s": "s",
    "entropy.repeat_ratio": "ratio",
    "entropy.quad_warnings": "count",
    "bounds.compositions": "count",
    "bounds.self_s": "s",
    "mc.draws": "count",
    "mc.self_s": "s",
    "mc.is_ess_ratio": "ratio",
    "mc.thread_speedup": "ratio",
    "cli.requests": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _points_fn(name: str, fn):
    if layer_of(name) == "specfn":
        return _first_size
    if name == "distributions.skewt_logpdf":
        return _rows
    if name in SAMPLERS or name in ESTIMATORS:
        return _arg(fn, "n")
    return None


def _entropy_key(name, args, kwargs):
    p = args[0]
    rest = tuple(float(a) if isinstance(a, (int, float)) else repr(a) for a in args[1:])
    ident = (p.mu.tobytes(), p.scale.entries.tobytes(), p.delta.tobytes(), p.dof)
    return (name, ident, rest, tuple(sorted((k, repr(v)) for k, v in kwargs.items())))


class _Buffer:
    def __init__(self):
        self.spans = array("q")
        self.stack = []
        self.keys = []  # (span id, entropy call key)
        self.counts = {}


class Tracer:
    """Records spans while installed; ``layer_metrics`` turns them into layer figures."""

    def __init__(self):
        self.names = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._restore = []
        self._client = None
        self.request = -1
        self.t0 = time.perf_counter_ns()

    # -- recording --------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = self._tls.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def count(self, key: str, amount) -> None:
        counts = self._buffer().counts
        counts[key] = counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        points_of = _points_fn(name, fn)
        keyed = name in ENTROPY_CALLS
        is_ess = name == "mc.is_renyi"
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                client = tracer._client.stack
                parent = client[-1] if client and buf is not tracer._client else -1
            sid = next(tracer._ids)
            points = points_of(args, kwargs) if points_of else 0
            if keyed:
                buf.keys.append((sid, _entropy_key(name, args, kwargs)))
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.spans.extend((name_id, start, end, sid, parent, tracer.request, points))
            if is_ess:
                tracer.count("mc.is_ess", result.ess)
                tracer.count("mc.is_n", result.n)
            return result

        return wrapper

    def _count_compositions(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            n = 0
            try:
                for comp in fn(*args, **kwargs):
                    n += 1
                    yield comp
            finally:
                tracer.count("bounds.compositions", n)

        return counting

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "skewtmix" or mod_name.startswith("skewtmix.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self) -> "Tracer":
        from skewtmix import bounds, linalg

        self._client = self._buffer()
        for layer, (mod_name, funcs) in LAYERS.items():
            mod = sys.modules[mod_name]
            prefix = layer_of(layer)
            for func in funcs:
                original = getattr(mod, func)
                self._patch_everywhere(original, self._wrap(f"{prefix}.{func}", original))
        self._patch_everywhere(bounds.enumerate_compositions,
                               self._count_compositions(bounds.enumerate_compositions))
        spd_init = linalg.SpdMatrix.__post_init__
        linalg.SpdMatrix.__post_init__ = self._wrap(SPD_INIT, spd_init)
        self._restore.append((linalg.SpdMatrix, "__post_init__", spd_init))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ---------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All spans as an (n, 7) int64 array in FIELDS order, times in ns since the tracer started."""
        parts = [np.frombuffer(b.spans, dtype=np.int64).reshape(-1, len(FIELDS)) for b in self._buffers]
        table = np.concatenate(parts) if parts else np.empty((0, len(FIELDS)), dtype=np.int64)
        table = table.copy()
        table[:, 1:3] -= self.t0
        return table

    def counts(self) -> dict:
        total = {}
        for b in self._buffers:
            for k, v in b.counts.items():
                total[k] = total.get(k, 0) + v
        return total

    def entropy_keys(self) -> dict:
        return {sid: key for b in self._buffers for sid, key in b.keys}

    def save(self, path) -> None:
        np.savez(path, spans=self.spans(), names=np.array(self.names), fields=np.array(FIELDS))


def self_times(table: np.ndarray) -> np.ndarray:
    """Span duration minus the union of its children's intervals, in ns."""
    start, end, sid, parent = table[:, 1], table[:, 2], table[:, 3], table[:, 4]
    dur = end - start
    order = np.argsort(sid)
    child = np.flatnonzero(parent >= 0)
    if not child.size:
        return dur
    # Children grouped by parent, in start order; within a group each child
    # adds only the part of its interval past the running maximum end.
    child = child[np.lexsort((start[child], parent[child]))]
    p = parent[child]
    new_group = np.empty(p.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = p[1:] != p[:-1]
    group = np.cumsum(new_group) - 1
    span = int(end.max() - start.min()) + 1
    offset = group.astype(np.int64) * span
    run_max = np.maximum.accumulate(end[child] + offset) - offset
    prev = np.empty_like(run_max)
    prev[0] = np.iinfo(np.int64).min
    prev[1:] = run_max[:-1]
    prev[new_group] = np.iinfo(np.int64).min
    eff_start = np.maximum(start[child], prev)
    covered = np.clip(end[child] - eff_start, 0, None)
    parent_row = order[np.searchsorted(sid, p, sorter=order)]
    union = np.bincount(parent_row, weights=covered, minlength=len(table))
    return dur - union.astype(np.int64)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times of one traced pass."""
    table = tracer.spans()
    names = np.array(tracer.names)
    name = names[table[:, 0]] if len(table) else np.array([], dtype=str)
    self_s = self_times(table) / 1e9 if len(table) else np.zeros(0)
    points = table[:, 6]
    layer = np.array([layer_of(n) for n in name])
    counts = tracer.counts()

    def is_name(*wanted):
        return np.isin(name, wanted)

    # Entropy calls entered from outside the entropy layer, in start order.
    sid_row = {int(s): i for i, s in enumerate(table[:, 3])}
    keys = tracer.entropy_keys()
    outer = [
        i for i in np.flatnonzero(is_name(*ENTROPY_CALLS))
        if table[i, 4] < 0 or layer[sid_row[int(table[i, 4])]] != "entropy"
    ]
    outer.sort(key=lambda i: table[i, 1])
    seen, repeats = set(), 0
    for i in outer:
        key = keys[int(table[i, 3])]
        repeats += key in seen
        seen.add(key)
    is_n = counts.get("mc.is_n", 0)

    return {
        "specfn.t_cdf.calls": int(np.sum(is_name("specfn.student_t_cdf"))),
        "specfn.t_cdf.points": int(np.sum(points[is_name("specfn.student_t_cdf")])),
        "specfn.log_gamma.points": int(np.sum(points[is_name("specfn.log_gamma")])),
        "specfn.self_s": float(np.sum(self_s[layer == "specfn"])),
        "linalg.calls": int(np.sum(layer == "linalg")),
        "linalg.self_s": float(np.sum(self_s[layer == "linalg"])),
        "linalg.sqrt_spd.calls": int(np.sum(is_name("linalg.sqrt_spd"))),
        "distributions.derive_shape.calls": int(np.sum(is_name("distributions.derive_shape"))),
        "distributions.sample.draws": int(np.sum(points[is_name(*SAMPLERS)])),
        "distributions.sample.self_s": float(np.sum(self_s[is_name(*SAMPLERS)])),
        "distributions.logpdf.points": int(np.sum(points[is_name("distributions.skewt_logpdf")])),
        "distributions.logpdf.self_s": float(np.sum(self_s[is_name(*LOGPDFS)])),
        "entropy.calls": len(outer),
        "entropy.self_s": float(np.sum(self_s[layer == "entropy"])),
        "entropy.repeat_ratio": repeats / len(outer) if outer else 0.0,
        "bounds.compositions": int(counts.get("bounds.compositions", 0)),
        "bounds.self_s": float(np.sum(self_s[layer == "bounds"])),
        "mc.draws": int(np.sum(points[is_name(*ESTIMATORS)])),
        "mc.self_s": float(np.sum(self_s[layer == "mc"])),
        "mc.is_ess_ratio": counts.get("mc.is_ess", 0.0) / is_n if is_n else 0.0,
        "cli.requests": int(np.sum(is_name("cli.main"))),
        "cli.self_s": float(np.sum(self_s[layer == "cli"])),
    }
