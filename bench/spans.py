"""Span recording around the library's public functions, from outside it.

A ``Tracer`` replaces module attributes of ``oneshot`` with timing
wrappers while it is installed and puts the originals back afterwards.
Each call records one span ``[name, start, end, parent, pass_id]`` in
memory; counts are kept per pass beside the spans.  Nothing is written
until ``write_spans`` is called at the end of a run.

The library binds most callees at import (``from .problem import ...``),
so a callee is wrapped in the namespace of the module that calls it, not
where it is defined.  The two late imports (``read_matrix``/``read_vector``
in ``cavity.load_problem`` and ``k_step_operators`` in
``bounds.bound_report_for``) resolve at call time, so those are wrapped in
the defining module.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter


class Tracer:
    """In-memory spans and per-pass counts for wrapped library calls."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.pass_id = None
        self.missing = []
        self._stack = []
        self._patched = []

    def wrap(self, owner, attr, name, on_return=None):
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``on_return(counts, args, kwargs, result)`` updates the counts of
        the current pass after the call; it runs outside the span.  A
        boundary the library no longer has is listed in ``missing`` and
        its layer reads zero.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent, self.pass_id])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if on_return is not None:
                on_return(self.counts[self.pass_id], args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self.counts[pass_id] = Counter()
        self.missing = []

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")


# ----------------------------------------------------------------------
# what is wrapped, and the counts taken at each boundary
# ----------------------------------------------------------------------

def _count_sweep(counts, args, kwargs, result):
    problem = args[0]
    k = args[4] if len(args) > 4 else kwargs["k"]
    counts["descent.sweep.calls"] += 1
    counts["descent.inner_sweeps"] += k
    # B and B* (2 n_u^2) plus H and H* (2 n_g n_u) float64 entries per sweep
    counts["descent.sweep.bytes_computed"] += \
        8 * 2 * (problem.n_u ** 2 + problem.n_g * problem.n_u) * k


def _count_run(counts, args, kwargs, trace):
    counts["descent.outer_iters"] += trace.records[-1].n


def _count_row(counts, args, kwargs, result):
    counts["descent.record.rows"] += 1


def _count_certify(counts, args, kwargs, certificate):
    problem = args[0]
    counts["spectral.certify.calls"] += 1
    counts["spectral.block_dim"] = max(counts["spectral.block_dim"],
                                       2 * problem.n_u + problem.n_sigma)


def _count_s_of(counts, args, kwargs, result):
    counts["bounds.s_of.calls"] += 1


def _count_written(counts, args, kwargs, result):
    counts["matrixio.bytes_written"] += os.path.getsize(args[0])


def _count_read(counts, args, kwargs, result):
    counts["matrixio.bytes_read"] += os.path.getsize(args[0])


COUNT_METRICS = (
    "descent.sweep.calls", "descent.inner_sweeps", "descent.record.rows",
    "descent.outer_iters", "descent.sweep.bytes_computed",
    "spectral.certify.calls", "spectral.block_dim", "bounds.s_of.calls",
    "matrixio.bytes_written", "matrixio.bytes_read",
)


def install(tracer):
    """Wrap every layer boundary the workloads cross."""
    from oneshot import (bounds, cavity, descent, experiments, matrixio,
                         problem, spectral)

    wrap = tracer.wrap
    # entry points the benchmark itself calls
    wrap(experiments, "run_experiment", "experiments.run_experiment")
    wrap(cavity, "generate", "cavity.generate")
    wrap(cavity, "export_cavity", "cavity.export")
    wrap(cavity, "load_problem", "cavity.load")
    wrap(bounds, "bound_report_for", "bounds.report")
    wrap(spectral, "certify", "spectral.certify", _count_certify)
    # callees bound at import, wrapped in the caller's namespace
    wrap(experiments, "generate", "cavity.generate")
    wrap(experiments, "run", "descent.run", _count_run)
    wrap(descent, "fixed_point_sweep", "descent.sweep", _count_sweep)
    wrap(descent, "cost", "descent.record", _count_row)
    wrap(descent, "gradient", "descent.record")
    wrap(descent, "solve_state_exact", "descent.exact_step")
    wrap(descent, "solve_adjoint_exact", "descent.exact_step")
    wrap(descent, "regularized_solution", "descent.ref_solution")
    wrap(cavity, "bessel_y0", "bessel.y0")
    wrap(cavity, "LinearInverseProblem", "problem.init")
    wrap(problem, "LinearInverseProblem", "problem.init")
    wrap(cavity, "write_matrix", "matrixio.write", _count_written)
    wrap(spectral, "iteration_matrix_semi_implicit", "spectral.build")
    wrap(bounds, "s_of", "bounds.s_of", _count_s_of)
    # late imports, resolved in the defining module at call time
    wrap(matrixio, "read_matrix", "matrixio.read", _count_read)
    wrap(matrixio, "read_vector", "matrixio.read")
    wrap(spectral, "k_step_operators", "spectral.k_step_ops")


# ----------------------------------------------------------------------
# per-layer times from the spans of one pass
# ----------------------------------------------------------------------

def layer_times(spans, pass_id):
    """Per-layer seconds of one pass, from the spans of the whole run.

    A span's self time is its duration minus the durations of its direct
    children.  "Total" sums skip a span nested in one of the same name
    (``read_vector`` calls ``read_matrix``), so no time is counted twice.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    mine = [(span, (span[2] - span[1]) - c)
            for span, c in zip(spans, child) if span[4] == pass_id]

    def parent_name(span):
        return None if span[3] is None else spans[span[3]][0]

    def total(name, under=None):
        return sum((span[2] - span[1] for span, _ in mine
                   if span[0] == name and parent_name(span) != name
                    and (under is None or parent_name(span) == under)), 0.0)

    def self_time(*names):
        return sum((own for span, own in mine if span[0] in names), 0.0)

    return {
        "descent.sweep.s": total("descent.sweep"),
        "descent.record.s": total("descent.record"),
        "descent.exact_step.s": total("descent.exact_step"),
        "descent.ref_solution.s": total("descent.ref_solution"),
        "descent.self.s": self_time("descent.run"),
        "experiments.self.s": self_time("experiments.run_experiment"),
        "cavity.generate.s": total("cavity.generate"),
        "cavity.bessel.s": total("bessel.y0"),
        "cavity.self.s": self_time("cavity.generate", "cavity.export", "cavity.load"),
        "problem.init.s": total("problem.init"),
        "cavity.export.s": total("cavity.export"),
        "matrixio.write.s": total("matrixio.write"),
        "cavity.load.s": total("cavity.load"),
        "matrixio.read.s": total("matrixio.read"),
        "spectral.build.s": total("spectral.build"),
        "spectral.eig.s": self_time("spectral.certify"),
        "bounds.report.s": total("bounds.report"),
        "bounds.s_of.s": total("bounds.s_of"),
        "bounds.k_step_ops.s": total("spectral.k_step_ops", under="bounds.report"),
        "bounds.self.s": self_time("bounds.report"),
    }
