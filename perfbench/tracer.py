"""Spans around calls into polyspec's public functions, recorded from outside.

`Tracer.install()` replaces every public function of the package's modules
with a wrapper, in every module that bound it by name (``zeros`` binds
``bessel_j`` itself, ``selfcheck`` imports through the package), and wraps
the lookup methods of ``ZeroCache``.  `uninstall()` puts the originals back.
A wrapper records nothing unless a request span is open, so the
benchmark's own checks stay out of the numbers.

Each span keeps (request id, span id, parent id, name, start, end) in memory;
`write_spans` stores them when the run ends.  Self time (duration minus the
time covered by direct children) and the per-layer counters are accumulated
as spans close.  polyspec's source is not touched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "bessel",
    "zeros",
    "disc_modes",
    "spectrum",
    "eigenforms",
    "spectral_ops",
    "gridfile",
    "verify",
    "selfcheck",
    "cli",
)
_ZERO_METHODS = ("zero", "enclosure", "zeros_upto")
_SCALAR = {"bessel.bessel_j", "bessel.bessel_j_prime", "bessel.bessel_j_second"}
_POINT_FUNCS = {
    "eigenforms.eval_coefficient",
    "eigenforms.laplacian_residual",
    "eigenforms.box_coefficient_value",
    "eigenforms.dbar_boundary_residual",
}
_EXPAND_FUNCS = {
    "spectral_ops.expand",
    "spectral_ops.expand_from_samples",
    "spectral_ops.sample_on_grid",
    "spectral_ops.sampled_norm_sq",
    "spectral_ops.radial_quadrature",
    "spectral_ops.angular_quadrature",
    "spectral_ops.mode_norm_sq",
    "spectral_ops.expansion_norm",
}

# Unit of each per-layer metric; README.md says which end-to-end metric each
# should move, and on which workload.
LAYER_UNITS = {
    "bessel.scalar.calls": "count/req",
    "bessel.scalar.series_frac": "ratio",
    "bessel.scalar.self_s": "s/req",
    "bessel.many.calls": "count/req",
    "bessel.many.points": "count/req",
    "bessel.many.self_s": "s/req",
    "zeros.lookups": "count/req",
    "zeros.computed": "count/req",
    "zeros.hit_ratio": "ratio",
    "zeros.evals_per_zero": "count",
    "zeros.self_s": "s/req",
    "disc_modes.tables": "count/req",
    "disc_modes.factors": "count/req",
    "disc_modes.self_s": "s/req",
    "spectrum.modes": "count/req",
    "spectrum.points": "count/req",
    "spectrum.enumerate.self_s": "s/req",
    "spectrum.group.self_s": "s/req",
    "eigenforms.points": "count/req",
    "eigenforms.bessel_per_point": "count",
    "eigenforms.self_s": "s/req",
    "spectral_ops.terms": "count/req",
    "spectral_ops.expand.self_s": "s/req",
    "spectral_ops.synthesize.self_s": "s/req",
    "spectral_ops.apply.self_s": "s/req",
    "gridfile.bytes_read": "B/req",
    "gridfile.read.self_s": "s/req",
    "verify.self_s": "s/req",
    "cli.import_s": "s",
    "cli.stdout_bytes": "B/req",
    "cli.serialize.self_s": "s/req",
    "trace.overhead_frac": "ratio",
}


def layer_of(name: str) -> str:
    """Layer of a span name: its module, with selfcheck folded into verify."""
    layer = name.split(".", 1)[0]
    return "verify" if layer == "selfcheck" else layer


def row_of(name: str) -> str:
    """Row of the self-time table: the layer, split where a layer metric is split."""
    layer = layer_of(name)
    if layer == "bessel":
        return "bessel.many" if name == "bessel.bessel_j_many" else "bessel.scalar"
    if layer == "spectrum":
        return {
            "spectrum.enumerate_modes": "spectrum.enumerate",
            "spectrum.assemble_spectrum": "spectrum.group",
        }.get(name, "spectrum.other")
    if layer == "spectral_ops":
        if name in _EXPAND_FUNCS:
            return "spectral_ops.expand"
        if name == "spectral_ops.synthesize":
            return "spectral_ops.synthesize"
        return "spectral_ops.apply" if name.startswith("spectral_ops.apply") else "spectral_ops.other"
    return layer


class _Frame:
    __slots__ = ("sid", "name", "layer", "owner", "child_s", "children")

    def __init__(self, sid, name, layer, owner):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.owner = owner  # layer of the nearest ancestor outside bessel
        self.child_s = 0.0
        self.children = 0


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.request_self: dict[int, dict[str, float]] = {}
        self._stack: list[_Frame] = []
        self._rid = -1
        self._next_sid = 0
        self._patched: list[tuple[object, str, object]] = []
        self._caches: dict[int, tuple[object, int]] = {}
        self._switch = 18.0
        self._hook_table = self._hooks()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("polyspec")
        from polyspec.bessel import DEFAULT_CONFIG
        from polyspec.zeros import ZeroCache

        self._switch = DEFAULT_CONFIG.series_switch_point
        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"polyspec.{short}")
            names = list(getattr(mod, "__all__", ())) or ["main"]
            for fname in names:
                fn = getattr(mod, fname, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{short}.{fname}")
        modules = [pkg] + [m for k, m in sys.modules.items() if k.startswith("polyspec.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])
        for meth in _ZERO_METHODS:
            self._patch(ZeroCache, meth, self._wrap(getattr(ZeroCache, meth), f"zeros.ZeroCache.{meth}"))
        init = ZeroCache.__init__

        def register(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            self.watch_cache(cache)

        self._patch(ZeroCache, "__init__", register)

    def watch_cache(self, cache) -> None:
        """Count the zeros `cache` computes from now on (new caches are watched)."""
        self._caches.setdefault(id(cache), (cache, len(cache.known_items())))

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def wrap_user(self, fn, name: str):
        """Wrap a benchmark callable handed to polyspec, so its time is not polyspec's."""
        return self._wrap(fn, name)

    def _wrap(self, fn, name: str):
        layer = layer_of(name)
        hook = self._hook_table.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            parent.children += 1
            owner = parent.owner if parent.layer == "bessel" else parent.layer
            sid = self._next_sid
            self._next_sid += 1
            frame = _Frame(sid, name, layer, owner)
            if hook is not None:
                hook(args, kwargs, frame, None, before=True)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                parent.child_s += dur
                self.self_s[name] += dur - frame.child_s
                self.count[name] += 1
                self.spans.append((self._rid, sid, parent.sid, name, t0, t1))
            if hook is not None:
                hook(args, kwargs, frame, result, before=False)
            return result

        return wrapper

    # -- per-function counters ---------------------------------------------

    def _hooks(self):
        def scalar(args, kwargs, frame, result, before):
            if before and frame.name == "bessel.bessel_j":
                z = args[1] if len(args) > 1 else kwargs.get("z")
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                switch = cfg.series_switch_point if cfg is not None else self._switch
                self.count["bessel.series"] += z <= switch
                self.count[f"bessel.evals_under.{frame.owner}"] += 1

        def many(args, kwargs, frame, result, before):
            if not before:
                self.count["bessel.many.points"] += int(getattr(result, "size", 0))

        def lookup(args, kwargs, frame, result, before):
            if not before and frame.children == 0:
                self.count["zeros.hits"] += 1

        def sized(key):
            def hook(args, kwargs, frame, result, before):
                if not before:
                    self.count[key] += len(result)
            return hook

        def grid(args, kwargs, frame, result, before):
            if before:
                path = args[0] if args else kwargs.get("path")
                self.count["gridfile.bytes_read"] += os.path.getsize(path)

        def expansion(args, kwargs, frame, result, before):
            if not before and frame.owner != "spectral_ops":
                self.count["spectral_ops.terms"] += len(result.terms)

        hooks = {
            "bessel.bessel_j": scalar,
            "bessel.bessel_j_many": many,
            "zeros.ZeroCache.zero": lookup,
            "zeros.ZeroCache.enclosure": lookup,
            "spectrum.enumerate_modes": sized("spectrum.modes"),
            "spectrum.assemble_spectrum": sized("spectrum.points"),
            "gridfile.read_grid": grid,
            "spectral_ops.expand_from_samples": expansion,
        }
        return hooks

    # -- requests -----------------------------------------------------------

    @contextlib.contextmanager
    def request(self, rid: int, label: str):
        """One traced request, under a root span of its own."""
        name = f"request.{label}"
        self._rid = rid
        before = dict(self.self_s)
        self._stack.append(_Frame(-1 - rid, name, "request", "request"))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((rid, -1 - rid, None, name, t0, t1))
            own = {k: v - before.get(k, 0.0) for k, v in self.self_s.items()}
            own["request"] = t1 - t0
            self.request_self[rid] = own

    def zeros_computed(self) -> int:
        return sum(len(c.known_items()) - n0 for c, n0 in self._caches.values())

    # -- derived metrics ----------------------------------------------------

    def metrics(self, requests: int) -> dict[str, float]:
        """Per-layer metrics of the traced requests, normalized per request."""
        c, s = self.count, self.self_s
        per = 1.0 / max(requests, 1)

        def total(names):
            return sum(s.get(n, 0.0) for n in names)

        def in_layer(layer):
            return sum(v for k, v in s.items() if layer_of(k) == layer)

        scalar_calls = c["bessel.bessel_j"]
        lookups = c["zeros.ZeroCache.zero"] + c["zeros.ZeroCache.enclosure"]
        computed = self.zeros_computed()
        points = sum(c[n] for n in _POINT_FUNCS)
        out = {
            "bessel.scalar.calls": scalar_calls * per,
            "bessel.scalar.series_frac": c["bessel.series"] / scalar_calls if scalar_calls else 0.0,
            "bessel.scalar.self_s": total(_SCALAR) * per,
            "bessel.many.calls": c["bessel.bessel_j_many"] * per,
            "bessel.many.points": c["bessel.many.points"] * per,
            "bessel.many.self_s": s.get("bessel.bessel_j_many", 0.0) * per,
            "zeros.lookups": lookups * per,
            "zeros.computed": computed * per,
            "zeros.hit_ratio": c["zeros.hits"] / lookups if lookups else 0.0,
            "zeros.evals_per_zero": c["bessel.evals_under.zeros"] / computed if computed else 0.0,
            "zeros.self_s": in_layer("zeros") * per,
            "disc_modes.tables": (c["disc_modes.dirichlet_factors"] + c["disc_modes.neumann_factors"]) * per,
            "disc_modes.factors": (
                c["disc_modes.dirichlet_factor"]
                + c["disc_modes.neumann_factor"]
                + c["disc_modes.holomorphic_factor"]
            ) * per,
            "disc_modes.self_s": in_layer("disc_modes") * per,
            "spectrum.modes": c["spectrum.modes"] * per,
            "spectrum.points": c["spectrum.points"] * per,
            "spectrum.enumerate.self_s": s.get("spectrum.enumerate_modes", 0.0) * per,
            "spectrum.group.self_s": s.get("spectrum.assemble_spectrum", 0.0) * per,
            "eigenforms.points": points * per,
            "eigenforms.bessel_per_point": c["bessel.evals_under.eigenforms"] / points if points else 0.0,
            "eigenforms.self_s": in_layer("eigenforms") * per,
            "spectral_ops.terms": c["spectral_ops.terms"] * per,
            "spectral_ops.expand.self_s": total(_EXPAND_FUNCS) * per,
            "spectral_ops.synthesize.self_s": s.get("spectral_ops.synthesize", 0.0) * per,
            "spectral_ops.apply.self_s": total({"spectral_ops.apply_box", "spectral_ops.apply_inverse"}) * per,
            "gridfile.bytes_read": c["gridfile.bytes_read"] * per,
            "gridfile.read.self_s": s.get("gridfile.read_grid", 0.0) * per,
            "verify.self_s": in_layer("verify") * per,
            "cli.serialize.self_s": s.get("cli.main", 0.0) * per,
        }
        return out


def write_spans(tracer: Tracer, path: str) -> None:
    """Store the recorded spans as CSV: request, span, parent, name, start, end."""
    with open(path, "w") as fh:
        fh.write("request,span,parent,name,start_s,end_s\n")
        for rid, sid, parent, name, t0, t1 in tracer.spans:
            fh.write(f"{rid},{sid},{'' if parent is None else parent},{name},{t0:.9f},{t1:.9f}\n")
