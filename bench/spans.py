"""In-memory spans and counters around liftlab's public functions.

``Tracer.install`` rebinds the public functions of each liftlab module,
wherever a ``liftlab.*`` module holds them by name, plus the class
attributes listed in ``_TARGETS`` and ``scipy.linalg.expm`` / ``eig`` /
``eigh``; ``uninstall`` puts the originals back.  Nothing in liftlab itself
changes.  Per-event and per-probe helpers (velocity sampling, rate bounds,
``RngStream`` methods, ``inner_product``) are deliberately left alone: the
spans sit at trajectory and call level, so tracing costs a few microseconds
per call rather than per event.

Every ``*_s`` layer metric is a self time: the span's duration minus the
durations of its direct child spans, summed over all spans of that name.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, span name or None for count-only, hook)
_TARGETS = [
    ("liftlab.core", "OperatorMatrix.__init__", "core.operator_init", "operator_init"),
    ("liftlab.generators", "sticky_bm_generator", "generators.build", "generator"),
    ("liftlab.generators", "rtp_generator", "generators.build", "generator"),
    ("liftlab.generators", "overdamped_generator_1d", "generators.build", "generator"),
    ("liftlab.generators", "zigzag_generator_1d", "generators.build", "generator"),
    ("liftlab.spectral", "decompose", "spectral.decompose", "decompose"),
    ("liftlab.spectral", "Semigroup.__init__", "spectral.semigroup_init", "semigroup"),
    ("liftlab.spectral", "Semigroup.apply", "spectral.propagate", "apply"),
    ("liftlab.spectral", "Semigroup.apply_many", "spectral.propagate", "apply_many"),
    ("scipy.linalg", "eig", "spectral.eig", "eig"),
    ("scipy.linalg", "eigh", "spectral.eig", "eig"),
    ("scipy.linalg", "expm", "spectral.expm", "expm"),
    ("liftlab.flow_poincare", "lifted_probe_family", "flow_poincare.probes", "probes"),
    ("liftlab.flow_poincare", "best_nu", "flow_poincare.best_nu", None),
    ("liftlab.flow_poincare", "flow_ratio", None, "flow_ratio"),
    ("liftlab.flow_poincare", "decay_check", "flow_poincare.decay", None),
    ("liftlab.flow_poincare", "pointwise_decay_bound", "flow_poincare.decay", None),
    ("liftlab.lift_check", "lift_report", "lift_check.report", None),
    ("liftlab.divergence", "build_harmonic_basis", "divergence.basis", None),
    ("liftlab.divergence", "solve_divergence", "divergence.solve", "solve"),
    ("liftlab.simulate", "simulate_rtp", "simulate.sample", "sample"),
    ("liftlab.simulate", "simulate_zigzag", "simulate.sample", "sample"),
    ("liftlab.simulate", "simulate_forward", "simulate.sample", "sample"),
    ("liftlab.simulate", "empirical_decay_rate", "simulate.replica", "replica"),
    ("liftlab.simulate", "Trajectory.to_csv", "simulate.serialize", "to_csv"),
    ("liftlab.studies", "rtp_scaling_study", "studies", "study"),
    ("liftlab.studies", "gamma_study", "studies", "study"),
    ("liftlab.io_utils", "atomic_write_text", "io_utils.write", "write"),
    ("liftlab.cli", "parse_config", "cli.parse", None),
]

# sampler throughput is reported for these long single runs, keyed by
# (sampler function, dimension); replica trajectories are excluded
THROUGHPUT_KEYS = {
    ("simulate_rtp", 1): "simulate.rtp.events_per_s",
    ("simulate_zigzag", 2): "simulate.zigzag_d2.events_per_s",
    ("simulate_zigzag", 50): "simulate.zigzag_d50.events_per_s",
    ("simulate_forward", 2): "simulate.forward_d2.events_per_s",
}

MB = 1024.0 * 1024.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _operators(obj):
    """Operator matrices in a generator builder's return value."""
    if hasattr(obj, "entries"):
        return [obj]
    if isinstance(obj, tuple):
        return [x for x in obj if hasattr(x, "entries")]
    return [obj.full, obj.transport, obj.refresh]


class Tracer:
    """Spans ``[name, start, end, parent]`` and counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(int)
        self.throughput = defaultdict(lambda: [0, 0.0])  # key -> [events, seconds]
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _inside(self, idx, name):
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _hook(self, kind, fn_name, args, kwargs, result, idx):
        c, mx = self.counts, self.maxima
        if kind == "operator_init":
            c["core.operator_inits"] += 1
        elif kind == "generator":
            ops = _operators(result)
            c["generators.calls"] += 1
            c["generators.entries_bytes"] += sum(op.entries.nbytes for op in ops)
            mx["generators.max_dim"] = max(mx["generators.max_dim"], *(op.dim for op in ops))
        elif kind == "decompose":
            c["spectral.decompose_calls"] += 1
            mx["spectral.decompose_max_dim"] = max(mx["spectral.decompose_max_dim"], args[0].dim)
        elif kind == "eig":
            c["spectral.eig_calls"] += 1
        elif kind == "expm":
            c["spectral.expm_calls"] += 1
        elif kind == "semigroup":
            c["spectral.semigroups"] += 1
        elif kind == "apply":
            c["spectral.propagated_vectors"] += 1
        elif kind == "apply_many":
            c["spectral.propagated_vectors"] += np.size(_arg(args, kwargs, 2, "ts"))
        elif kind == "probes":
            c["flow_poincare.probe_count"] += len(result)
        elif kind == "flow_ratio":
            c["flow_poincare.flow_ratio_calls"] += 1
        elif kind == "solve":
            c["divergence.solves"] += 1
        elif kind == "sample":
            c["simulate.events"] += len(result)
            key = THROUGHPUT_KEYS.get((fn_name, result.dim))
            if key is not None and not self._inside(idx, "simulate.replica"):
                span = self.spans[idx]
                self.throughput[key][0] += len(result)
                self.throughput[key][1] += span[2] - span[1]
        elif kind == "replica":
            c["simulate.replicas"] += _arg(args, kwargs, 1, "n_replicas")
        elif kind == "to_csv":
            c["simulate.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
        elif kind == "study":
            c["studies.rows"] += len(result["rows"])
        elif kind == "write":
            c["io_utils.write_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _wrap(self, fn, fn_name, span, kind):
        tracer = self
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._hook(kind, fn_name, args, kwargs, None, -1)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if kind is not None:
                tracer._hook(kind, fn_name, args, kwargs, result, idx)
            return result
        return traced

    # -- installation ----------------------------------------------------
    def install(self):
        """Rebind every target; ``uninstall`` restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        liftlab_modules = [m for n, m in list(sys.modules.items())
                           if n == "liftlab" or n.startswith("liftlab.")]
        for module_name, path, span, kind in _TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(original, attr, span, kind))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, path, span, kind)
            self._rebind(module, path, wrapper)
            for holder in liftlab_modules:
                if holder is not module and holder.__dict__.get(path) is original:
                    self._rebind(holder, path, wrapper)

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def self_times(self) -> dict:
        """Seconds per span name, each span's duration minus its children's."""
        out = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), kids in zip(self.spans, child):
            out[name] += end - start - kids
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced pass (floats)."""
        st, c, mx = self.self_times(), self.counts, self.maxima
        solves = c["divergence.solves"]
        out = {
            "core.operator_init_s": st["core.operator_init"],
            "core.operator_inits": c["core.operator_inits"],
            "generators.build_s": st["generators.build"],
            "generators.calls": c["generators.calls"],
            "generators.max_dim": mx["generators.max_dim"],
            "generators.entries_mb": c["generators.entries_bytes"] / MB,
            "spectral.decompose_s": st["spectral.decompose"],
            "spectral.decompose_calls": c["spectral.decompose_calls"],
            "spectral.decompose_max_dim": mx["spectral.decompose_max_dim"],
            "spectral.eig_s": st["spectral.eig"],
            "spectral.eig_calls": c["spectral.eig_calls"],
            "spectral.semigroup_init_s": st["spectral.semigroup_init"],
            "spectral.semigroups": c["spectral.semigroups"],
            "spectral.propagate_s": st["spectral.propagate"],
            "spectral.propagated_vectors": c["spectral.propagated_vectors"],
            "spectral.expm_s": st["spectral.expm"],
            "spectral.expm_calls": c["spectral.expm_calls"],
            "flow_poincare.probes_s": st["flow_poincare.probes"],
            "flow_poincare.probe_count": c["flow_poincare.probe_count"],
            "flow_poincare.best_nu_s": st["flow_poincare.best_nu"],
            "flow_poincare.flow_ratio_calls": c["flow_poincare.flow_ratio_calls"],
            "flow_poincare.decay_s": st["flow_poincare.decay"],
            "lift_check.report_s": st["lift_check.report"],
            "divergence.basis_s": st["divergence.basis"],
            "divergence.solve_s": st["divergence.solve"],
            "divergence.solves": solves,
            "divergence.solve_ms_per_rhs": 1e3 * st["divergence.solve"] / solves if solves else 0.0,
            "simulate.sample_s": st["simulate.sample"],
            "simulate.events": c["simulate.events"],
            "simulate.replica_s": st["simulate.replica"],
            "simulate.replicas": c["simulate.replicas"],
            "simulate.serialize_s": st["simulate.serialize"],
            "simulate.csv_mb": c["simulate.csv_bytes"] / MB,
            "studies.self_s": st["studies"],
            "studies.rows": c["studies.rows"],
            "io_utils.write_s": st["io_utils.write"],
            "io_utils.write_mb": c["io_utils.write_bytes"] / MB,
            "cli.parse_s": st["cli.parse"],
        }
        for key in THROUGHPUT_KEYS.values():
            events, seconds = self.throughput.get(key, (0, 0.0))
            out[key] = events / seconds if seconds > 0 else 0.0
        return {k: float(v) for k, v in out.items()}
