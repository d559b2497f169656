"""Per-layer tracing from outside the program.

Wraps the public functions of each catproj module (plus the private kernel
``fock._displacement_matrix`` and the Nelder-Mead entry point bound into
``catproj.fidelity``) with timing spans and work counters.  The package
modules import names directly (``from .fock import _displacement_matrix``),
so every wrapper replaces the name in *every* catproj module that bound it,
and in module-level dispatch tables such as ``cli.COMMANDS``.

A span's self time is its duration minus the durations of the wrapped
calls made inside it.  Nothing under ``src/`` is modified; ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

MODULES = ("fock", "povm", "fidelity", "tomography", "experiment", "serialize", "cli")

# private names wrapped in addition to every public function
PRIVATE = ("fock._displacement_matrix",)

# names the per-layer metrics depend on; each must show calls > 0 on the
# workloads listed, and is reported as absent if the program no longer has it
EXPECTED = {
    "fock._displacement_matrix": ("sweep", "reconstruct"),
    "fock.scs_projectors": ("sweep", "reconstruct"),
    "fock.displacement_operator": ("sweep", "reconstruct", "campaign"),
    "povm.quadrature_interval_operator": ("sweep",),
    "povm.apply_loss": ("reconstruct", "campaign"),
    "povm.onoff_povm": ("sweep",),
    "povm.dp_povm": ("sweep", "reconstruct"),
    "fidelity.optimize_displacement": ("sweep", "reconstruct"),
    "fidelity.optimize_homodyne": ("sweep",),
    "fidelity.homodyne_fidelity": ("sweep",),
    "fidelity.minimize": ("sweep", "reconstruct"),
    "tomography.mle_reconstruct": ("reconstruct", "campaign"),
    "tomography.solve_phi": ("reconstruct", "campaign"),
    "tomography.solve_even_series": ("reconstruct", "campaign"),
    "tomography.tomography_pipeline": ("reconstruct", "campaign"),
    "tomography.error_bars": ("campaign",),
    "experiment.simulate_counts": ("reconstruct", "campaign"),
    "experiment.apparatus_povm": ("reconstruct", "campaign"),
    "experiment.reconstruction_sweep": ("reconstruct",),
    "serialize.write_sweep_csv": ("sweep",),
    "serialize.write_reconstruction_csv": ("reconstruct",),
    "serialize.write_click_table": ("campaign",),
    "serialize.write_tomography_json": ("campaign",),
    "serialize.atomic_write_text": ("sweep", "reconstruct", "campaign"),
    "serialize.read_click_table": ("campaign",),
    "cli.main": ("sweep", "reconstruct", "campaign"),
}

WRITERS = (
    "serialize.write_sweep_csv",
    "serialize.write_reconstruction_csv",
    "serialize.write_click_table",
    "serialize.write_tomography_json",
)


class Recorder:
    """Span statistics and counters for one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.failures = defaultdict(int)
        self.active = False
        self._stack: list[list] = []  # [name, start, time spent in child spans]
        self._seen_failures: set = set()

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self, name: str, err: BaseException | None) -> None:
        end = time.perf_counter()
        _, start, children = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if err is not None:
            # one count per module per exception, however many wrapped frames it crosses
            key = (name.partition(".")[0], id(err))
            if key not in self._seen_failures:
                self._seen_failures.add(key)
                self.failures[key[0]] += 1


def _after_mle(rec: Recorder, args, result) -> None:
    diag = result.diagnostics or {}
    rec.counters["tomography.mle.iterations"] += int(diag.get("iterations", 0))
    rec.counters["tomography.mle.converged"] += 1 if diag.get("converged") else 0


def _after_pipeline(rec: Recorder, args, result) -> None:
    exp = result.expectations
    clamped = any(exp[k] != exp[k + "_raw"] for k in ("im_plus", "im_minus", "cat_plus"))
    rec.counters["tomography.clamped"] += 1 if clamped else 0


def _after_write(rec: Recorder, args, result) -> None:
    rec.counters["serialize.write.bytes"] += len(args[1].encode("utf-8"))


def _after_minimize(rec: Recorder, args, result) -> None:
    rec.counters["fidelity.nm.nfev"] += int(result.nfev)
    rec.counters["fidelity.nm.nit"] += int(result.nit)


HOOKS = {
    "tomography.mle_reconstruct": _after_mle,
    "tomography.tomography_pipeline": _after_pipeline,
    "serialize.atomic_write_text": _after_write,
    "fidelity.minimize": _after_minimize,
}


def _wrap(rec: Recorder, name: str, fn):
    hook = HOOKS.get(name)

    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            rec.leave(name, err)
            raise
        rec.leave(name, None)
        if hook is not None:
            hook(rec, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _targets(package) -> dict[str, object]:
    """``module.function`` -> function object, for every name to wrap."""
    targets = {}
    for short in MODULES:
        mod = getattr(package, short)
        for attr, obj in vars(mod).items():
            full = f"{short}.{attr}"
            own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
            if own and (not attr.startswith("_") or full in PRIVATE):
                targets[full] = obj
    minimize = getattr(package.fidelity, "minimize", None)
    if minimize is not None:
        targets["fidelity.minimize"] = minimize
    return targets


class Tracer:
    """Installs wrappers on entry and restores the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.recorder = Recorder()
        self.targets = _targets(package)
        self.absent = sorted(n for n in EXPECTED if n not in self.targets)
        self._undo: list = []

    def install(self) -> None:
        # keyed by id: the targets dict keeps every original alive, so ids are stable
        wrappers = {id(fn): _wrap(self.recorder, name, fn) for name, fn in self.targets.items()}
        prefix = self.package.__name__ + "."
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._undo.append((setattr, mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and attr.isupper():  # dispatch tables
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = wrappers[id(value)]

    def uninstall(self) -> None:
        for setter, holder, key, original in reversed(self._undo):
            setter(holder, key, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """The aggregated per-layer numbers of the traced pass."""
        rec = self.recorder
        out: dict[str, float] = {}
        for name in self.targets:
            out[f"{name}.calls"] = rec.calls.get(name, 0)
            out[f"{name}.self_s"] = rec.self_time.get(name, 0.0)
            out[f"{name}.total_s"] = rec.total.get(name, 0.0)
        for short in MODULES:
            out[f"{short}.self_s"] = sum(
                (v for k, v in rec.self_time.items() if k.partition(".")[0] == short), 0.0
            )
            out[f"{short}.failures"] = rec.failures.get(short, 0)
        out["fidelity.nm.nfev"] = rec.counters["fidelity.nm.nfev"]
        out["fidelity.nm.nit"] = rec.counters["fidelity.nm.nit"]
        mle_calls = rec.calls.get("tomography.mle_reconstruct", 0)
        out["tomography.mle.iterations"] = rec.counters["tomography.mle.iterations"]
        out["tomography.mle.converged_frac"] = (
            rec.counters["tomography.mle.converged"] / mle_calls if mle_calls else 0.0
        )
        runs = rec.calls.get("tomography.tomography_pipeline", 0)
        out["tomography.clamped_frac"] = rec.counters["tomography.clamped"] / runs if runs else 0.0
        out["tomography.series_solve.self_s"] = rec.self_time.get(
            "tomography.solve_phi", 0.0
        ) + rec.self_time.get("tomography.solve_even_series", 0.0)
        # the writers call only serialize helpers, so their span is the layer's self time
        out["serialize.write.self_s"] = sum(rec.total.get(n, 0.0) for n in WRITERS)
        out["serialize.write.bytes"] = rec.counters["serialize.write.bytes"]
        # argparse, config resolution and dispatch: main's span minus the command handlers
        handlers = self.package.cli.COMMANDS.values()
        out["cli.main.self_s"] = rec.total.get("cli.main", 0.0) - sum(
            rec.total.get(f"cli.{getattr(h, '__name__', '')}", 0.0) for h in handlers
        )
        return out

    def uncovered(self, workload: str) -> list[str]:
        """Present names the mapping expects on this workload that saw no call."""
        return sorted(
            name
            for name, where in EXPECTED.items()
            if workload in where and name in self.targets and not self.recorder.calls.get(name)
        )
