"""Span tracer for the traced benchmark child.

Wraps each public function named below at every module binding through which
it is called (`from .linalg import kernel` copies the function into the
importing module's namespace, so each copy is replaced), and each listed
method on its class. Spans nest: a span's self time is its duration minus the
time its child spans cover. Spans are kept in memory, one aggregated tree per
analyzed input, and written out when the child ends.

The wrappers are installed only in the traced run; the untraced run executes
the program unmodified. Spans assume one thread, which holds because the
benchmark leaves REDUCTIVE_WORKBENCH_THREADS unset.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

PACKAGE = "reductive_workbench"

TIMED = (
    "catalog.construct",
    "numlab.make_matrix_realization",
    "specfile.load_space_spec_file",
    "liealg.make_lie_algebra",
    "liealg.simple_ideal_decomposition",
    "homspace.normal_decomposition",
    "homspace.build_metric",
    "homspace.make_reductive_pair",
    "liealg.killing_form",
    "liealg.ad_invariance_check",
    "liealg.largest_ideal_in",
    "liealg.centralizer",
    "liealg.derived_subalgebra",
    "liealg.orthogonal_complement",
    "liealg.is_subalgebra",
    "homspace.naturally_reductive_check",
    "homspace.normalizer_invariance_check",
    "homspace.isotropy_fixed_subspace",
    "homspace.isotropy_irreducibility_probe",
    "affine.invariant_field_killing_check",
    "affine.invariant_field_algebra",
    "connection.connection_tensors_at_basepoint",
    "report.run_report",
    "affine.transvection_equals_g_check",
    "affine.transvection_algebra",
    "affine.affine_algebra",
    "affine.fixed_torus",
    "affine.isometry_report",
    "linalg.rref",
    "linalg.kernel",
    "linalg.signature",
    "linalg.mat_inverse",
    "linalg.matmul",
    "linalg.charpoly",
    "linalg.factor_poly",
    "numlab.matrix_exp",
    "numlab.flow_commutation_check",
    "report.SpaceReport.to_json",
)

# Called too often to time without distorting the run: counted only.
COUNTED = ("liealg.LieAlgebra.bracket", "liealg.SubspaceBasis.coords_of")

CACHED = ("catalog.construct", "homspace.isotropy_fixed_subspace", "affine.invariant_field_algebra")

# A root span of one of these starts a new input; renders attach in order.
LOADERS = ("catalog.construct", "specfile.load_space_spec_file")
RENDER = "report.SpaceReport.to_json"
PAIR = "homspace.normal_decomposition"


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0, 0] for name in TIMED}  # calls, total ns, self ns
        self.calls = Counter()
        self.counts = Counter()  # linalg.rref.cells, linalg.rref.noop, linalg.matmul.mults
        self.inputs: list[dict] = []  # per input: {path: [calls, total ns, self ns]}
        self.root_ns = 0
        self._stack: list[list] = []  # [path, start ns, child ns, input tree]
        self._active = Counter()
        self._renders = 0
        self._originals = {}

    # -- spans --------------------------------------------------------------

    def _tree_for_root(self, name: str) -> dict:
        if name == RENDER and self._renders < len(self.inputs):
            self._renders += 1
            return self.inputs[self._renders - 1]
        if name in LOADERS or not self.inputs:
            self.inputs.append({})
        return self.inputs[-1]

    def timed(self, name: str, fn, extra=None):
        stats = self.stats[name]
        stack = self._stack
        active = self._active
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if stack:
                path = stack[-1][0] + (name,)
                tree = stack[-1][3]
            else:
                path = (name,)
                tree = self._tree_for_root(name)
            frame = [path, 0, 0, tree]
            stack.append(frame)
            outermost = not active[name]
            active[name] += 1
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                active[name] -= 1
                own = elapsed - frame[2]
                stats[0] += 1
                stats[2] += own
                if outermost:
                    stats[1] += elapsed
                node = tree.setdefault(path, [0, 0, 0])
                node[0] += 1
                node[1] += elapsed
                node[2] += own
                if stack:
                    stack[-1][2] += elapsed
                else:
                    self.root_ns += elapsed
            if extra is not None:
                extra(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rref_extra(self, args, result):
        rows, ncols = args[0], args[1]
        self.counts["linalg.rref.cells"] += len(rows) * ncols
        if tuple(tuple(r) for r in rows) == result[0]:
            self.counts["linalg.rref.noop"] += 1

    def _matmul_extra(self, args, result):
        A, B = args[0], args[1]
        self.counts["linalg.matmul.mults"] += len(A) * len(B) * (len(B[0]) if len(B) else 0)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Import the whole package and wrap every binding of every target."""
        for mod in ("cli", "catalog", "specfile", "numlab", "report", "affine",
                    "connection", "homspace", "liealg", "linalg"):
            importlib.import_module(f"{PACKAGE}.{mod}")
        modules = [m for key, m in sys.modules.items() if key.startswith(PACKAGE)]
        extras = {"linalg.rref": self._rref_extra, "linalg.matmul": self._matmul_extra}
        for name in TIMED + COUNTED:
            mod, _, attr = name.partition(".")
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in attr:  # a method: one binding, on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                if name in COUNTED:
                    setattr(cls, meth, self.counted(name, original))
                else:
                    setattr(cls, meth, self.timed(name, original))
                continue
            original = getattr(owner, attr)
            self._originals[name] = original
            wrapper = self.timed(name, original, extras.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        def cache_ratio(name):
            info = self._originals[name].cache_info()
            tried = info.hits + info.misses
            return {"hits": info.hits, "misses": info.misses,
                    "ratio": info.hits / tried if tried else 0.0}

        return {
            "functions": {
                name: {"calls": c, "s": t / 1e9, "self_s": s / 1e9}
                for name, (c, t, s) in self.stats.items()
            },
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "caches": {name: cache_ratio(name) for name in CACHED},
            "root_s": self.root_ns / 1e9,
            "inputs": [
                [[" > ".join(path), c, t / 1e9, s / 1e9] for path, (c, t, s) in tree.items()]
                for tree in self.inputs
            ],
        }
