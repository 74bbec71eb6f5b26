"""Experiment harness: parse sweep documents, run them, emit CSV.

An experiment document is plain text with ``[section]`` headers and
``key = value`` pairs (``#`` starts a comment).  The sections are
[experiment], [cavity] (any CavityConfig key, as in the cavity manifest),
[sweep] (comma-separated lists) and [run].  One table (``_SPEC_KEYS``)
maps every [experiment], [sweep] and [run] key to the parser of its value
and its canonical formatter, as the cavity codec table does for [cavity];
parsing, the manifest and the per-kind key rules all read it.  Unknown
sections or keys are hard errors carrying the line number.  Every run
kind is one sweep: the cavity variants are the product, in that order, of
whichever of noise_levels, mesh_hs and deltas are non-empty (an empty
list keeps the [cavity] value), and every variant runs every (scheme,
tau, k, alpha) cell.  The kind names TauSweep, KComparison, NoiseStudy,
MeshRobustness and DeltaDependence label the study; the last three also
require their axis (noise_levels, mesh_hs, deltas) to be listed.
BoundReport and CertifySweep tabulate step bounds and spectral
certificates on the [cavity] itself instead of running iterations.
BoundReport reads ks and alphas, CertifySweep taus, ks and alphas; each
requires the keys it reads and rejects, and leaves out of its manifest,
every other [sweep] and [run] key.

Outputs per invocation: one trace CSV per run cell (``cell0000.csv``,
...), a ``summary.csv`` with one row per cell, and a reproduction
``manifest.txt`` holding the canonical serialized spec plus the package
version.  Given equal specs, outputs are byte-identical across runs:
seeds are fixed, wall-clock columns are zeroed, and floats are written in
shortest round-trip form (summary) or with 17 significant digits
(traces).
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass, field, replace

from . import __version__
from .bounds import bound_report_for, report_csv_header, report_csv_row
from .cavity import (CavityConfig, cavity_config_lines, generate,
                     multi_source_objective, parse_cavity_value, with_noise_level)
from .descent import RunConfig, SchemeKind, format_trace_csv, run
from .errors import SpecParseError, SpecValidationError
from .problem import positive_int
from .spectral import certificate_csv_header, certificate_csv_row, certify


class ExperimentKind(str, enum.Enum):
    TauSweep = "TauSweep"
    KComparison = "KComparison"
    NoiseStudy = "NoiseStudy"
    MeshRobustness = "MeshRobustness"
    DeltaDependence = "DeltaDependence"
    BoundReport = "BoundReport"
    CertifySweep = "CertifySweep"


#: The sweep lists that vary the cavity, with the CavityConfig field each sets.
_CAVITY_AXES = (("noise_levels", "noise_level"), ("mesh_hs", "mesh_h"),
                ("deltas", "delta"))

#: The run kinds that must list their cavity axis.
_REQUIRED_AXIS = {ExperimentKind.NoiseStudy: "noise_levels",
                  ExperimentKind.MeshRobustness: "mesh_hs",
                  ExperimentKind.DeltaDependence: "deltas"}


def _split_list(value):
    return [v.strip() for v in value.split(",") if v.strip()]


#: (parse, format) of a comma-separated list of floats.
_FLOATS = (lambda text: tuple(float(v) for v in _split_list(text)),
           lambda values: ",".join(repr(float(v)) for v in values))

#: Every key of the [experiment], [sweep] and [run] sections, in canonical
#: order, with the parser of its document value and the formatter of its
#: ExperimentSpec field ([cavity] keys use the cavity manifest codecs).
_SPEC_KEYS = {
    "experiment": {"kind": (str, lambda kind: kind.value), "output_dir": (str, str)},
    "sweep": {"schemes": (lambda text: tuple(_split_list(text)),
                          lambda schemes: ",".join(s.value for s in schemes)),
              "taus": _FLOATS,
              "ks": (lambda text: tuple(int(v) for v in _split_list(text)),
                     lambda ks: ",".join(map(str, ks))),
              "alphas": _FLOATS, "noise_levels": _FLOATS, "mesh_hs": _FLOATS,
              "deltas": _FLOATS},
    "run": {"max_outer": (int, str), "tol_cost": (float, repr), "tol_step": (float, repr)},
}

#: The [sweep] keys each table kind reads, all of them required.  A table
#: kind tabulates the [cavity] itself and runs no iterations, so it rejects
#: every other [sweep] and [run] key.
_TABLE_READS = {ExperimentKind.BoundReport: ("ks", "alphas"),
                ExperimentKind.CertifySweep: ("taus", "ks", "alphas")}


def _kind_keys(kind):
    """The keys an experiment kind requires and the keys it rejects."""
    if kind in _TABLE_READS:
        reads = _TABLE_READS[kind]
        return reads, [key for key in (*_SPEC_KEYS["sweep"], *_SPEC_KEYS["run"])
                       if key not in reads]
    axis = (_REQUIRED_AXIS[kind],) if kind in _REQUIRED_AXIS else ()
    return ("schemes", "taus", "ks", "alphas", *axis), []


def _unread_key_error(kind, name) -> SpecValidationError:
    return SpecValidationError(
        f"experiment kind {kind.value} tabulates the [cavity] itself and never reads {name!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: ExperimentKind
    cavity: CavityConfig = field(default_factory=CavityConfig)
    schemes: tuple = ()
    taus: tuple = ()
    ks: tuple = (1,)
    alphas: tuple = (0.0,)
    noise_levels: tuple = ()
    mesh_hs: tuple = ()
    deltas: tuple = ()
    max_outer: int = 200
    tol_cost: float = 0.0
    tol_step: float = 0.0
    output_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "kind", ExperimentKind(self.kind))
        for name in _SPEC_KEYS["sweep"]:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "schemes", tuple(map(SchemeKind, self.schemes)))
        self._validate()

    def _validate(self):
        required, rejected = _kind_keys(self.kind)
        for name in rejected:
            if getattr(self, name) != ExperimentSpec.__dataclass_fields__[name].default:
                raise _unread_key_error(self.kind, name)
        for name in required:
            if not getattr(self, name):
                raise SpecValidationError(
                    f"experiment kind {self.kind.value} requires a non-empty {name!r}")
        for name, codec in _SPEC_KEYS["sweep"].items():
            if codec is _FLOATS and not all(math.isfinite(v) for v in getattr(self, name)):
                raise SpecValidationError(f"{name} contains a non-finite value")
        if any(t <= 0 for t in self.taus):
            raise SpecValidationError("taus must be positive")
        for k in self.ks:
            positive_int("ks", k, SpecValidationError)
        if any(a < 0 for a in self.alphas):
            raise SpecValidationError("alphas must be non-negative")
        for name in ("tol_cost", "tol_step"):
            if not 0 <= getattr(self, name) < math.inf:
                raise SpecValidationError(f"{name} must be finite and non-negative")
        positive_int("max_outer", self.max_outer, SpecValidationError)
        try:
            self.cavity_variants()
        except ValueError as exc:
            raise SpecValidationError(str(exc)) from exc

    def cavity_variants(self) -> list:
        """The [cavity] with every combination of the listed axis values."""
        axes = [(name, getattr(self, key)) for key, name in _CAVITY_AXES
                if getattr(self, key)]
        names = [name for name, _ in axes]
        return [replace(self.cavity, **dict(zip(names, values)))
                for values in itertools.product(*(values for _, values in axes))]


# ----------------------------------------------------------------------
# document parsing / serialization
# ----------------------------------------------------------------------

def parse_spec(text: str) -> ExperimentSpec:
    """Parse an experiment document; unknown keys and sections are errors."""
    section = None
    fields, cavity = {}, {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section != "cavity" and section not in _SPEC_KEYS:
                raise SpecParseError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise SpecParseError(f"expected 'key = value', got {line!r}", line=lineno)
        if section is None:
            raise SpecParseError("entry before any [section] header", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if section == "cavity":
                cavity[key] = parse_cavity_value(key, value)
            else:
                fields[key] = _SPEC_KEYS[section][key][0](value)
        except KeyError:
            raise SpecParseError(f"unknown key {key!r} in [{section}]", line=lineno) from None
        except ValueError as exc:
            raise SpecParseError(f"bad value for {key!r}: {exc}", line=lineno) from exc
    if "kind" not in fields:
        raise SpecValidationError("missing required key 'kind' in [experiment]")
    try:
        kind = ExperimentKind(fields["kind"])
    except ValueError:
        raise SpecValidationError(f"unknown experiment kind {fields['kind']!r}") from None
    for name in _kind_keys(kind)[1]:
        if name in fields:
            raise _unread_key_error(kind, name)
    try:
        return ExperimentSpec(cavity=CavityConfig(**cavity), **fields)
    except (ValueError, TypeError) as exc:
        raise SpecValidationError(str(exc)) from exc


def serialize_spec(spec: ExperimentSpec) -> str:
    """Canonical document form; parse(serialize(spec)) == spec.

    A table kind's manifest omits the keys it rejects.
    """
    rejected = _kind_keys(spec.kind)[1]

    def lines(section):
        return [f"{key} = {fmt(getattr(spec, key))}"
                for key, (_, fmt) in _SPEC_KEYS[section].items() if key not in rejected]

    sections = [("experiment", lines("experiment")), ("cavity", cavity_config_lines(spec.cavity)),
                ("sweep", lines("sweep")), ("run", lines("run"))]
    return "\n\n".join(f"[{name}]\n" + "\n".join(body) for name, body in sections if body) + "\n"


def load_spec(path) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

_SUMMARY_HEADER = ("cell,kind,scheme,tau,k,alpha,noise_level,mesh_h,delta,"
                   "n_u,n_sigma,status,n_outer,acc_inner,final_cost,"
                   "final_grad_norm,final_rel_err_sigma,iters_to_cost_1e-8")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cells(spec: ExperimentSpec):
    """Enumerate (cavity, scheme, tau, k, alpha) run cells.

    Each cavity variant is generated once, just before its cells; a
    variant that differs from the one before only in noise_level reuses
    its problem and draws only the noise.  The gradient-descent schemes
    ignore k, so their cells collapse to a single k.
    """
    cavity = None
    for variant in spec.cavity_variants():
        if cavity is not None and variant == replace(cavity.config,
                                                     noise_level=variant.noise_level):
            cavity = with_noise_level(cavity, variant.noise_level)
        else:
            cavity = generate(variant)
        for scheme in spec.schemes:
            ks = spec.ks if scheme.is_one_shot else (spec.ks[0],)
            for tau in spec.taus:
                for k in ks:
                    for alpha in spec.alphas:
                        yield cavity, scheme, tau, k, alpha


def run_experiment(spec: ExperimentSpec, output_dir=None, quiet: bool = True):
    """Execute a spec; returns the list of files written (absolute paths).

    ``output_dir`` overrides the spec's own output directory.  The files
    are held in memory and written only after every cell has run, so a
    failing spec leaves no partial output behind.
    """
    files = {}

    manifest = (f"# oneshot-inversion {__version__}\n"
                f"# reproduction manifest: run `oneshot run --spec` on the spec below\n"
                + serialize_spec(spec))
    files["manifest.txt"] = manifest

    if spec.kind is ExperimentKind.BoundReport:
        cavity = generate(spec.cavity)
        rows = [report_csv_header()]
        for k in spec.ks:
            for alpha in spec.alphas:
                rows.append(report_csv_row(bound_report_for(cavity.problem, alpha, k)))
        files["bounds.csv"] = "\n".join(rows) + "\n"
    elif spec.kind is ExperimentKind.CertifySweep:
        cavity = generate(spec.cavity)
        rows = [certificate_csv_header()]
        for tau in spec.taus:
            for k in spec.ks:
                for alpha in spec.alphas:
                    rows.append(certificate_csv_row(
                        certify(cavity.problem, tau, alpha, k)))
        files["certify.csv"] = "\n".join(rows) + "\n"
    else:
        summary_rows = [_SUMMARY_HEADER]
        for index, (cavity, scheme, tau, k, alpha) in enumerate(_cells(spec)):
            variant = cavity.config
            objective = multi_source_objective(
                cavity, alpha=alpha, use_noisy=variant.noise_level > 0)
            config = RunConfig(scheme=scheme, tau=tau, k=k,
                               max_outer=spec.max_outer, tol_cost=spec.tol_cost,
                               tol_step=spec.tol_step, sigma0=cavity.init_sigma)
            trace = run(objective, config)
            if not quiet:
                print(f"cell {index:04d}: {scheme.value} tau={tau} k={k} "
                      f"alpha={alpha} -> {trace.status.value} "
                      f"(n={trace.records[-1].n}, J={trace.final_cost:.3e})")
            files[f"cell{index:04d}.csv"] = format_trace_csv(trace)
            last = trace.records[-1]
            summary_rows.append(",".join([
                f"{index:04d}", spec.kind.value, scheme.value,
                _fmt(float(tau)), str(k), _fmt(float(alpha)),
                _fmt(float(variant.noise_level)), _fmt(float(variant.mesh_h)),
                _fmt(float(variant.delta)), str(cavity.mesh_summary.n_u),
                str(cavity.mesh_summary.n_sigma), trace.status.value,
                str(last.n), str(last.acc_inner), _fmt(last.cost),
                _fmt(last.grad_norm), _fmt(last.rel_err_sigma),
                _fmt(trace.iterations_to_cost(1e-8)),
            ]))
        files["summary.csv"] = "\n".join(summary_rows) + "\n"

    out = output_dir or spec.output_dir
    os.makedirs(out, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    return [os.path.join(out, name) for name in files]
