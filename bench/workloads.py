"""The three benchmark workloads: set-up, one timed pass, and its checks.

Every workload takes the benchmark seed, which becomes the cavity
``rng_seed`` and the ``random_problem`` seed.  A pass writes its outputs
into a directory of its own; ``check`` then verifies them outside the
timed region and returns one ``(operation, fault or None)`` entry per
operation, so a failed check counts as a failed operation.

Library modules are reached through their module attributes (for example
``cavity.generate``) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import replace

import numpy as np

from oneshot import bounds, cavity, experiments, problem, spectral

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

#: Seed whose outputs are compared with the stored reference values.
DEFAULT_SEED = 0

#: Relative tolerance against the reference: admits rounding-level drift
#: (a changed summation order), not a different answer.
REL_TOL = 1e-6
#: Absolute floors: costs stop at tol_cost = 1e-12, and a relative error
#: of sigma that has converged to rounding level (1e-16) is noise.
COST_ABS_TOL = 1e-16
REL_ERR_ABS_TOL = 1e-12

_STATUSES = {"max_outer", "tol_cost", "tol_step", "diverged"}


def close(a, b, abs_tol=0.0):
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def _optional_float(text):
    return float(text) if text != "" else None


# ----------------------------------------------------------------------
# experiment-spec workloads: one run_experiment pass
# ----------------------------------------------------------------------

class SpecWorkload:
    """One ``run_experiment`` pass over a shipped spec file."""

    def __init__(self, name, config, n_cells):
        self.name = name
        self.config = config
        self.ops_per_pass = n_cells

    def spec(self, seed):
        spec = experiments.load_spec(os.path.join(CONFIGS, self.config))
        return replace(spec, cavity=replace(spec.cavity, rng_seed=seed))

    def setup(self, seed):
        """Generate every cavity the spec uses; the pass regenerates them,
        as a user of ``oneshot run`` pays for that."""
        spec = self.spec(seed)
        for h in spec.mesh_hs or (spec.cavity.mesh_h,):
            cavity.generate(replace(spec.cavity, mesh_h=h))
        return spec

    def run_pass(self, spec, out_dir):
        experiments.run_experiment(spec, output_dir=out_dir)
        return {"out_dir": out_dir}

    def read(self, outputs):
        """Summary rows plus every cell's trace rows, as plain values."""
        out_dir = outputs["out_dir"]
        with open(os.path.join(out_dir, "summary.csv"), encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        cells = []
        for row in summary:
            with open(os.path.join(out_dir, f"cell{row['cell']}.csv"),
                      encoding="utf-8") as fh:
                trace = list(csv.DictReader(fh))
            cells.append({
                "status": row["status"], "n_outer": int(row["n_outer"]),
                "final_cost": float(row["final_cost"]),
                "final_rel_err_sigma": _optional_float(row["final_rel_err_sigma"]),
                "trace": trace,
            })
        return cells

    def reference_of(self, outputs):
        return [[c["status"], c["n_outer"], c["final_cost"], c["final_rel_err_sigma"]]
                for c in self.read(outputs)]

    def work(self, outputs):
        """Outer iterations completed across all cells of the pass."""
        return sum(c["n_outer"] for c in self.read(outputs))

    def check(self, outputs, reference):
        cells = self.read(outputs)
        results = []
        for i in range(self.ops_per_pass):
            if i >= len(cells):
                results.append((f"cell{i}", "missing from summary.csv"))
                continue
            fault = _cell_invariants(cells[i])
            if fault is None and reference is not None:
                fault = _cell_against_reference(cells[i], reference[i])
            results.append((f"cell{i}", fault))
        if len(cells) > self.ops_per_pass:
            results.append(("summary", f"{len(cells)} cells, expected {self.ops_per_pass}"))
        return results


def _cell_invariants(cell):
    trace = cell["trace"]
    if cell["status"] not in _STATUSES:
        return f"unknown status {cell['status']!r}"
    if not trace or int(trace[-1]["n"]) != cell["n_outer"] \
            or trace[-1]["status"] != cell["status"]:
        return "summary row disagrees with the trace's last row"
    # a diverged run ends on a row that may hold inf; every other row is finite
    rows = trace[:-1] if cell["status"] == "diverged" else trace
    for row in rows:
        values = [float(row["cost"]), float(row["grad_norm"])]
        if row["rel_err_sigma"] != "":
            values.append(float(row["rel_err_sigma"]))
        if not all(math.isfinite(v) for v in values):
            return f"non-finite values in row n={row['n']}"
    return None


def _cell_against_reference(cell, expected):
    status, n_outer, final_cost, rel_err = expected
    if cell["status"] != status or cell["n_outer"] != n_outer:
        return (f"status/n_outer {cell['status']}/{cell['n_outer']}, "
                f"reference {status}/{n_outer}")
    if not close(cell["final_cost"], final_cost, COST_ABS_TOL):
        return f"final_cost {cell['final_cost']!r}, reference {final_cost!r}"
    if not close(cell["final_rel_err_sigma"], rel_err, REL_ERR_ABS_TOL):
        return f"final_rel_err_sigma {cell['final_rel_err_sigma']!r}, reference {rel_err!r}"
    return None


# ----------------------------------------------------------------------
# the problem-file path: export, load, bounds, certify, s-path bound
# ----------------------------------------------------------------------

#: Steps certified, as multiples of 1/rho(A*A); 2.5 lies beyond the
#: gradient-descent limit 2/rho(A*A), 1.4 between the limits.
CERTIFY_K = 3
TAU_FACTORS = (1.4, 2.5)
S_PATH_SHAPE = dict(n_u=128, n_sigma=6, n_g=32)
S_PATH_ALPHA = 1e-3


class CertifyWorkload:
    """The CLI problem-file path on the noise-free cavity."""

    name = "certify"
    ops_per_pass = 7

    def setup(self, seed):
        spec = experiments.load_spec(os.path.join(CONFIGS, "exp_noise_free.cfg"))
        return seed, cavity.generate(replace(spec.cavity, rng_seed=seed))

    def run_pass(self, state, out_dir):
        seed, generated = state
        problem_dir = os.path.join(out_dir, "problem")
        t0 = time.perf_counter()
        cavity.export_cavity(generated, problem_dir)
        t1 = time.perf_counter()
        loaded = cavity.load_problem(problem_dir)
        t2 = time.perf_counter()
        reports = {k: bounds.bound_report_for(loaded[0], alpha=0.0, k=k) for k in (1, CERTIFY_K)}
        t3 = time.perf_counter()
        rho_AtA = float(np.linalg.norm(loaded[0].reduced_operator(), 2)) ** 2
        taus = [reports[CERTIFY_K].tau_max] + [f / rho_AtA for f in TAU_FACTORS]
        certificates = [spectral.certify(loaded[0], tau, 0.0, CERTIFY_K) for tau in taus]
        t4 = time.perf_counter()
        small = problem.random_problem(**S_PATH_SHAPE, rng=seed)
        s_report = bounds.bound_report_for(small, alpha=S_PATH_ALPHA, k=CERTIFY_K,
                                           use_s_path=True)
        t5 = time.perf_counter()
        phases = {"export_s": t1 - t0, "load_s": t2 - t1, "bound_s": t3 - t2,
                  "certify_s": t4 - t3, "s_path_s": t5 - t4}
        rows = [bounds.report_csv_header()]
        rows += [bounds.report_csv_row(r) for r in (*reports.values(), s_report)]
        rows += [spectral.certificate_csv_header()]
        rows += [spectral.certificate_csv_row(c) for c in certificates]
        with open(os.path.join(out_dir, "results.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        return {"out_dir": out_dir, "phases": phases, "generated": generated,
                "loaded": loaded, "reports": reports, "certificates": certificates,
                "s_report": s_report}

    def reference_of(self, outputs):
        return {
            "tau_max": {str(k): r.tau_max for k, r in outputs["reports"].items()},
            "certificates": [[c.spectral_radius, c.convergent]
                             for c in outputs["certificates"]],
            "s_path": [outputs["s_report"].tau_max, outputs["s_report"].s_Bk],
        }

    def work(self, outputs):
        return len(outputs["certificates"])

    def check(self, outputs, reference):
        generated = outputs["generated"]
        loaded, g_clean, g_noisy = outputs["loaded"]
        exact = generated.problem
        round_trip = all(np.array_equal(getattr(loaded, name), getattr(exact, name))
                         for name in ("B", "M", "H", "F")) \
            and np.array_equal(g_clean, generated.stacked_clean) \
            and np.array_equal(g_noisy, generated.stacked_noisy)
        results = [("export_load", None if round_trip else
                    "loaded problem differs from the exported one")]

        for k, report in outputs["reports"].items():
            fault = None if report.tau_max > 0 else f"tau_max = {report.tau_max!r}"
            if fault is None and reference is not None \
                    and not close(report.tau_max, reference["tau_max"][str(k)]):
                fault = (f"tau_max {report.tau_max!r}, "
                         f"reference {reference['tau_max'][str(k)]!r}")
            results.append((f"bound_k{k}", fault))

        # the bound's tau_max must certify convergent (the paper's theorem);
        # 2.5/rho(A*A) is past the gradient-descent limit and must not
        expected = (True, None, False)
        for i, (cert, want) in enumerate(zip(outputs["certificates"], expected)):
            fault = None
            if not math.isfinite(cert.spectral_radius):
                fault = f"spectral radius {cert.spectral_radius!r}"
            elif want is not None and cert.convergent != want:
                fault = f"convergent = {cert.convergent} at tau = {cert.tau!r}"
            elif reference is not None:
                rho, convergent = reference["certificates"][i]
                if cert.convergent != convergent or not close(cert.spectral_radius, rho):
                    fault = (f"rho {cert.spectral_radius!r} ({cert.convergent}), "
                             f"reference {rho!r} ({convergent})")
            results.append((f"certify{i}", fault))

        s_report = outputs["s_report"]
        fault = None if s_report.tau_max > 0 else f"tau_max = {s_report.tau_max!r}"
        if fault is None and reference is not None:
            tau_max, s_Bk = reference["s_path"]
            if not (close(s_report.tau_max, tau_max) and close(s_report.s_Bk, s_Bk)):
                fault = (f"s-path tau_max/s_Bk {s_report.tau_max!r}/{s_report.s_Bk!r}, "
                         f"reference {tau_max!r}/{s_Bk!r}")
        results.append(("s_path", fault))
        return results


WORKLOADS = {
    "noise_free": SpecWorkload("noise_free", "exp_noise_free.cfg", n_cells=18),
    "mesh": SpecWorkload("mesh", "exp_mesh.cfg", n_cells=4),
    "certify": CertifyWorkload(),
}
