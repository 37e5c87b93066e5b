"""Spans and counts at the program's public boundaries, recorded from outside.

`Tracer.install` wraps each boundary function at every module attribute that
holds it (several modules import functions by value) and each boundary
method on its class; `uninstall` puts every original back.  A span records
its boundary, start, end, parent span and case id; spans stay in memory in
flat arrays until `write` saves them.  Self time is a span's duration minus
the time its child spans cover.
"""
from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (module, function or Class.method)
BOUNDARIES = (
    ("cli", "parse_config"),
    ("cli", "run_task"),
    ("models", "bundled_model"),
    ("core", "gamma_threshold"),
    ("surface", "SurfaceModel.zariski"),
    ("surface", "SurfaceModel.volume"),
    ("surface", "SurfaceModel.volume_float"),
    ("surface", "SurfaceModel.twisted_volume"),
    ("surface", "SurfaceModel.twist_integrals"),
    ("surface", "SurfaceModel.positive_product_against"),
    ("toric", "ToricModel.polytope_vertices"),
    ("toric", "ToricModel.volume"),
    ("toric", "ToricModel.constrained_volume"),
    ("toric", "ToricModel.section_basis"),
    ("quadrature", "integrate"),
    ("filtrations", "expected_order_S"),
    ("filtrations", "integration_range"),
    ("filtrations", "filtration_volume_finite_k"),
    ("filtrations", "d_infinity"),
    ("filtrations", "restriction_inequality_check"),
    ("stability", "norm"),
    ("stability", "beta"),
    ("stability", "ma_solve"),
    ("stability", "delta_anticanonical"),
    ("stability", "divisorial_stability_probe"),
)
NAMES = tuple(f"{m}.{f}" for m, f in BOUNDARIES)
_INDEX = {n: i for i, n in enumerate(NAMES)}
S_SPAN = _INDEX["filtrations.expected_order_S"]
GAMMA = _INDEX["core.gamma_threshold"]


class Tracer:
    def __init__(self):
        n = len(BOUNDARIES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.raised = [0] * n
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.case_id = -1
        self.integrand_evals = 0
        self.gamma_seen: set = set()
        self.gamma_repeats = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patched: list[tuple[object, str, object]] = []

    # -- install / uninstall ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import divstab  # noqa: F401  (imports the submodules; cli comes below)

        package = [m for k, m in sys.modules.items() if k == "divstab" or k.startswith("divstab.")]
        for idx, (mod, qual) in enumerate(BOUNDARIES):
            module = importlib.import_module(f"divstab.{mod}")
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name)
                self._set(owner, attr, self._wrap(idx, owner.__dict__[attr]))
                continue
            original = getattr(module, qual)
            wrapper = self._wrap(idx, original)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
        toric = importlib.import_module("divstab.toric").ToricModel
        self._set(toric, "twist_evaluator", self._counting_evaluator(toric.twist_evaluator))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, idx, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if idx == GAMMA:
                tracer._note_gamma(args, kwargs)
            span = len(tracer.span_name)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.span_name.append(idx)
            tracer.span_parent.append(parent)
            tracer.span_case.append(tracer.case_id)
            tracer.span_end.append(0.0)
            frame = [span, 0.0]
            tracer._stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] += 1
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - start
                tracer.span_end[span] = end
                tracer.calls[idx] += 1
                tracer.self_s[idx] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _note_gamma(self, args, kwargs):
        bound = dict(zip(("model", "L", "v"), args), **kwargs)
        key = (bound["model"].name, bound["L"].coefficients, bound["v"].name)
        if key in self.gamma_seen:
            self.gamma_repeats += 1
        else:
            self.gamma_seen.add(key)

    def _counting_evaluator(self, factory):
        tracer = self

        def twist_evaluator(model, L, valuations):
            evaluate = factory(model, L, valuations)

            def counted(cs):
                tracer.integrand_evals += 1
                return evaluate(cs)

            return counted

        twist_evaluator.__wrapped__ = factory
        return twist_evaluator

    # -- results ----------------------------------------------------------------

    def _descendant_counts(self, ancestor: int, child: int) -> tuple[int, int]:
        """(spans of `child` under some `ancestor` span, `ancestor` calls)."""
        names, parents = self.span_name, self.span_parent
        under = 0
        for i, n in enumerate(names):
            if n != child:
                continue
            p = parents[i]
            while p >= 0:
                if names[p] == ancestor:
                    under += 1
                    break
                p = parents[p]
        return under, self.calls[ancestor]

    def metrics(self, cases: int) -> dict:
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_s[i], "s")
            out[f"{name}.raised"] = (self.raised[i], "count")
        gamma_calls = self.calls[GAMMA]
        out["core.gamma_threshold.repeat_share"] = (
            self.gamma_repeats / gamma_calls if gamma_calls else 0.0, "ratio")
        s_calls = self.calls[S_SPAN]
        zariski_in_S, _ = self._descendant_counts(S_SPAN, _INDEX["surface.SurfaceModel.zariski"])
        out["surface.zariski_per_S"] = (zariski_in_S / s_calls if s_calls else 0.0, "ratio")
        out["toric.integrand_evals"] = (self.integrand_evals, "count")
        out["filtrations.S_per_case"] = (s_calls / cases if cases else 0.0, "ratio")
        for outer in ("stability.norm", "stability.ma_solve"):
            under, calls = self._descendant_counts(_INDEX[outer], S_SPAN)
            out[f"{outer}.S_per_call"] = (under / calls if calls else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        """Save every span as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\tcase\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{NAMES[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\t{self.span_case[i]}\n"
                )
