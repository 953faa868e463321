"""Span tracer for the benchmark's opt-in traced run.

The tracer wraps, from outside the package, every public function that one
``mzi_duality`` module calls in another: it rebinds the name in the calling
module's namespace (and in the package namespace, through which the ``points``
workload calls the library). Dataclass inputs are traced by wrapping
``__post_init__`` on the class itself, so ``isinstance`` and type identity are
untouched. Three extra spans cover work that does not cross a module boundary
but that the per-layer metrics name: ``cli.main`` (the benchmark calls it),
the ``verify.grid_*`` extremum oracles, and each evaluation of the probe that
``phase_probe`` returns.

Spans nest: a span's self time is its duration minus the durations of the
spans it directly contains. Only per-name totals are kept in memory.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("cli", "verify", "duality", "interferometer", "linalg")
PACKAGE = "mzi_duality"

INPUT_TYPES = ("BlochState", "BeamSplitterAngle", "PhaseShift", "DetectorConfig")
CLOSED_FORMS = (
    "visibility_closed",
    "distinguishability_closed",
    "complementarity_residual",
    "path_weights",
    "duality_report",
)

class Tracer:
    """Installs timing wrappers into the package and aggregates their spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.phases = 0
        self._stack = [[0]]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.total_ns.clear()
        self.self_ns.clear()
        self.phases = 0

    def _call(self, name, fn, args, kwargs):
        frame = [0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            self._stack.pop()
            self._stack[-1][0] += duration
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - frame[0]

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _wrap_phase_probe(self, fn):
        def traced_phase_probe(*args, **kwargs):
            probe = self._call("interferometer.phase_probe", fn, args, kwargs)

            def traced_probe(phis):
                self.phases += len(phis)
                return self._call("interferometer.probe_eval", probe, (phis,), {})

            return traced_probe

        return traced_phase_probe

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for namespace in [package, *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("_"):
                    continue
                owner = getattr(value, "__module__", "")
                layer = owner.rpartition(".")[2]
                if layer not in LAYERS or owner == namespace.__name__:
                    continue
                if inspect.isclass(value):
                    if "__post_init__" in vars(value) and id(value) not in wrapped:
                        wrapped[id(value)] = value
                        name = f"{layer}.{value.__name__}"
                        self._patch(value, "__post_init__", self._wrap(name, value.__post_init__))
                elif inspect.isfunction(value):
                    if attr == "phase_probe":
                        self._patch(namespace, attr, self._wrap_phase_probe(value))
                    else:
                        self._patch(namespace, attr, self._wrap(f"{layer}.{attr}", value))
        self._patch(modules["cli"], "main", self._wrap("cli.main", modules["cli"].main))
        for attr in [a for a in vars(modules["verify"]) if a.startswith("grid_")]:
            fn = getattr(modules["verify"], attr)
            self._patch(modules["verify"], attr, self._wrap(f"verify.{attr}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        counts = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        counts["interferometer.probe_eval.phases"] = self.phases
        return counts

    def _group(self, names) -> tuple[int, int]:
        return (
            sum(self.calls[n] for n in names),
            sum(self.total_ns[n] for n in names),
        )

    def layer_metrics(self, wall_ns: int, rows_written: int) -> dict[str, float]:
        """Per-layer metric values for one traced round of ``wall_ns`` nanoseconds."""

        def per_call(names) -> float:
            calls, total = self._group(names)
            return total / calls / 1e3 if calls else 0.0

        def calls(names) -> int:
            return self._group(names)[0]

        own = {
            layer: sum(ns for n, ns in self.self_ns.items() if n.startswith(layer + "."))
            for layer in LAYERS
        }
        scans = self.calls["duality.visibility_scan"]
        probe_calls, probe_ns = self._group(["interferometer.probe_eval"])
        closed_forms = [f"duality.{n}" for n in CLOSED_FORMS]
        inputs = [f"interferometer.{n}" for n in INPUT_TYPES]
        grid_oracles = [n for n in self.calls if n.startswith("verify.grid_")]
        metrics = {
            "duality.visibility_scan.calls": scans,
            "duality.visibility_scan.us_per_call": per_call(["duality.visibility_scan"]),
            "interferometer.probe_eval.calls_per_scan": probe_calls / scans if scans else 0.0,
            "interferometer.probe_eval.phases_per_scan": self.phases / scans if scans else 0.0,
            "interferometer.probe_eval.us_per_phase": (
                probe_ns / self.phases / 1e3 if self.phases else 0.0
            ),
            "interferometer.phase_probe.setup_us": per_call(["interferometer.phase_probe"]),
            "interferometer.evolve.us_per_call": per_call(["interferometer.evolve"]),
            "interferometer.evolve_closed_form.us_per_call": per_call(
                ["interferometer.evolve_closed_form"]
            ),
            "linalg.density_operator.calls": calls(["linalg.DensityOperator"]),
            "linalg.density_operator.us_per_call": per_call(["linalg.DensityOperator"]),
            "linalg.tensor.calls": calls(["linalg.tensor"]),
            "linalg.hermitian_eig2.calls": calls(["linalg.hermitian_eig2"]),
            "linalg.hermitian_eig2.us_per_call": per_call(["linalg.hermitian_eig2"]),
            "duality.trace_norm_D.us_per_call": per_call(["duality.distinguishability_trace_norm"]),
            "duality.min_error_basis.us_per_call": per_call(["duality.min_error_basis"]),
            "duality.closed_forms.calls": calls(closed_forms),
            "duality.closed_forms.us_per_call": per_call(closed_forms),
            "interferometer.inputs.calls": calls(inputs),
            "interferometer.inputs.us_per_call": per_call(inputs),
            "cli.rows_written": rows_written,
            "cli.format_us_per_row": own["cli"] / rows_written / 1e3 if rows_written else 0.0,
            "verify.grid_oracles.calls": calls(grid_oracles),
            "verify.grid_oracles.us_per_call": per_call(grid_oracles),
        }
        metrics.update({f"{layer}.self_share": ns / wall_ns for layer, ns in own.items()})
        return metrics
