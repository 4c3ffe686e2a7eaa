"""Outside-in tracing of edkit's layers for the traced benchmark run.

No file of the package changes. While a traced iteration runs, the public
functions each edkit module exposes are replaced by timing wrappers in every
edkit module that holds them (so both `edkit.analysis.build_model` and
`edkit.hamiltonian.build_model` are traced), and every Hamiltonian that
`build_model` returns has its CSR matrix re-classed to a subclass that times
and counts the products the solver makes with it. Spans stay in memory as
(name, start, end, parent) and are reduced to per-layer metrics afterwards.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from collections import defaultdict

# (module, public function, span): wrapped wherever an edkit module holds it
FUNCTIONS = (
    ("edkit.cli", "main", "cli"),
    ("edkit.config", "load_config", "config.load"),
    ("edkit.basis", "enumerate_sector", "basis.enumerate"),
    ("edkit.basis", "bipartite_factorize", "basis.factorize"),
    ("edkit.hamiltonian", "build_model", "hamiltonian.build"),
    ("edkit.solver", "lanczos_lowest", "solver.lanczos"),
    ("edkit.solver", "lowest_in_label", "solver.label_solve"),
    ("edkit.solver", "sharpen_spin", "solver.sharpen"),
    ("edkit.solver", "dense_spectrum", "solver.dense_eigh"),
    ("edkit.solver", "dense_subspace_spectrum", "solver.dense_eigh"),
    ("edkit.symmetry", "projector", "symmetry.projector"),
    ("edkit.symmetry", "total_spin", "symmetry.total_spin"),
    ("edkit.symmetry", "classify", "symmetry.classify"),
    ("edkit.entanglement", "schmidt_spectrum", "entanglement.schmidt"),
    ("edkit.analysis", "entropy_profile", "analysis.profile"),
    ("edkit.analysis", "entropy_vs_logdos", "analysis.profile"),
    ("edkit.analysis", "subspace_spectrum", "analysis.subspace"),
    ("edkit.analysis", "labeled_state", "analysis.labeled"),
    ("edkit.archive", "write_archive", "archive.write"),
    ("edkit.archive", "read_archive", "archive.read"),
)

# (module, class, method, span)
METHODS = (
    ("edkit.cli", "RunContext", "write_csv", "cli.csv_write"),
    ("edkit.symmetry", "Projector", "apply", "symmetry.project"),
    ("edkit.symmetry", "Projector", "orbit_basis", "symmetry.orbit_basis"),
)

MATVEC_SPAN = "hamiltonian.matvec"

SPANS = tuple(dict.fromkeys(
    [span for *_, span in FUNCTIONS] + [span for *_, span in METHODS] + [MATVEC_SPAN]
))

# counter -> the span whose run makes a zero reading mean "not measured"
COUNTERS = {
    "basis.dim": "basis.enumerate",
    "hamiltonian.nnz": "hamiltonian.build",
    "solver.matvecs": "solver.lanczos",
    "symmetry.projections": "solver.label_solve",
    "symmetry.total_spin_calls": "symmetry.total_spin",
    "entanglement.schmidt_calls": "entanglement.schmidt",
    "archive.bytes": "archive.write",
}
# counters that must repeat exactly between iterations with one seed
DETERMINISTIC = tuple(COUNTERS)


def metric_names(span: str) -> tuple[str, str]:
    """(inclusive, self) metric names of a span."""
    if span == "cli":
        return "cli.total_s", "cli.self_s"
    return f"{span}_s", f"{span}_self_s"


def per_layer_metric_units() -> dict[str, str]:
    """Every metric a traced iteration reports, with its unit, in output order."""
    units = {}
    for span in SPANS:
        for name in metric_names(span):
            units[name] = "s"
    for counter in COUNTERS:
        units[counter] = "count"
    units["solver.rss_growth_mb"] = "MB"
    units["trace.wall_s"] = "s"
    units["trace.uncovered_s"] = "s"
    units["trace.overhead_s"] = "s"  # traced wall minus untraced wall, set by run.py
    return units


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


_COUNTED_CLASSES: dict[type, type] = {}


def _counted_class(base: type) -> type:
    """Subclass of a scipy sparse matrix class whose products are traced.

    Only instances carrying a tracer are traced: results that scipy builds
    with `self.__class__` have none and multiply untraced.
    """
    if base not in _COUNTED_CLASSES:
        def _matmul_dispatch(self, other):
            tracer = self.__dict__.get("_perfbench_tracer")
            if tracer is None:
                return base._matmul_dispatch(self, other)
            tracer.begin(MATVEC_SPAN)
            try:
                return base._matmul_dispatch(self, other)
            finally:
                tracer.end()
                if tracer.open_spans["solver.lanczos"]:
                    tracer.counts["solver.matvecs"] += 1

        _COUNTED_CLASSES[base] = type(
            "Counted" + base.__name__, (base,), {"_matmul_dispatch": _matmul_dispatch}
        )
    return _COUNTED_CLASSES[base]


class Tracer:
    """In-memory spans and counters of one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, nested in same name]
        self.counts: dict[str, int] = defaultdict(int)
        self.open_spans: dict[str, int] = defaultdict(int)
        self.rss_growth_kb = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.open_spans[name] > 0])
        self._stack.append(len(self.spans) - 1)
        self.open_spans[name] += 1

    def end(self) -> None:
        idx = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.open_spans[span[0]] -= 1

    # --- wrappers ------------------------------------------------------------

    def _count_products(self, operator) -> None:
        """Re-class the operator's sparse matrix so its products are traced."""
        matrix = getattr(operator, "matrix", None)
        if matrix is None or not hasattr(type(matrix), "_matmul_dispatch"):
            return
        self.counts["hamiltonian.nnz"] = max(self.counts["hamiltonian.nnz"], int(matrix.nnz))
        matrix.__class__ = _counted_class(type(matrix))
        matrix._perfbench_tracer = self

    def _wrap(self, fn, span: str):
        counted = {
            "entanglement.schmidt": "entanglement.schmidt_calls",
            "symmetry.total_spin": "symmetry.total_spin_calls",
            "symmetry.project": "symmetry.projections",
        }.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss_before = _maxrss_kb() if span == "solver.lanczos" else 0
            self.begin(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counted:
                self.counts[counted] += 1
            if span == "solver.lanczos":
                self.rss_growth_kb += _maxrss_kb() - rss_before
            elif span == "basis.enumerate":
                # sizes keep the largest value seen; the other counters are sums
                self.counts["basis.dim"] = max(self.counts["basis.dim"], int(result.dim))
            elif span == "hamiltonian.build":
                self._count_products(result)
            elif span == "archive.write":
                path = args[0] if args else kwargs["path"]
                self.counts["archive.bytes"] += os.path.getsize(path)
            return result

        return traced

    # --- installing the wrappers -------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "edkit" or name.startswith("edkit."))]
        by_name = {m.__name__: m for m in modules}
        for modname, attr, span in FUNCTIONS:
            original = getattr(by_name.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        for modname, clsname, attr, span in METHODS:
            cls = getattr(by_name.get(modname), clsname, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            setattr(cls, attr, self._wrap(original, span))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            obj, key, original = self._restore.pop()
            setattr(obj, key, original)

    # --- reduction -----------------------------------------------------------

    def summary(self, wall: float) -> tuple[dict[str, float | int | None], float]:
        """Per-layer metrics of the iteration, and the error of the identity
        sum(self times) + uncovered = wall, which is 0 when the spans nest."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        child_time = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        ran = set()
        for i, (name, start, end, _, nested) in enumerate(self.spans):
            ran.add(name)
            own[name] += (end - start) - child_time[i]
            if not nested:
                inclusive[name] += end - start
        uncovered = wall - covered
        metrics: dict[str, float | int | None] = {}
        for span in SPANS:
            total_name, self_name = metric_names(span)
            metrics[total_name] = inclusive[span]
            metrics[self_name] = own[span]
        for counter, parent in COUNTERS.items():
            value = self.counts[counter]
            metrics[counter] = None if value == 0 and parent in ran else value
        metrics["solver.rss_growth_mb"] = self.rss_growth_kb / 1024.0
        metrics["trace.wall_s"] = wall
        metrics["trace.uncovered_s"] = uncovered
        identity_error = abs(sum(own.values()) + uncovered - wall)
        return metrics, identity_error

    def span_records(self, t0: float) -> list[dict]:
        """Spans as dicts, with times relative to `t0` (the iteration start)."""
        return [
            {"name": name, "start": start - t0, "end": end - t0, "parent": parent}
            for name, start, end, parent, _ in self.spans
        ]
