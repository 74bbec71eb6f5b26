"""Experiment harness: parse sweep documents, run them, emit CSV.

An experiment document is plain text with ``[section]`` headers and
``key = value`` pairs (``#`` starts a comment anywhere on a line).  The
sections are [experiment], [cavity] (any CavityConfig key, as in the
cavity manifest), [sweep] (comma-separated lists) and [run].  One table
(``_SPEC_KEYS``) maps every key of every section to the parser of its
value and its canonical formatter; [cavity] is the cavity manifest's
codec table and the lists share its codecs.  ``cavity.read_document``
parses a document against it and ``cavity.document_lines`` writes it, as
they do the manifest; parsing, the reproduction manifest and the
per-kind key rules all read the table.  An unknown section or key, a
line without ``=``, a bad value and a key given twice in one section are
SpecParseErrors carrying the line number.  Every run
kind is one sweep: the cavity variants are the product, in that order, of
whichever of noise_levels, mesh_hs and deltas are non-empty (an empty
list keeps the [cavity] value), and every variant runs every (scheme,
tau, k, alpha) cell; ``_cells`` makes the cells of one problem one
batch, which steps together whatever its schemes and k.  The kind names
TauSweep, KComparison, NoiseStudy, MeshRobustness and DeltaDependence
label the study; the last three also require their axis (noise_levels,
mesh_hs, deltas) to be listed.
BoundReport and CertifySweep tabulate step bounds and spectral
certificates on the [cavity] itself instead of running iterations.
BoundReport reads ks and alphas, CertifySweep taus, ks and alphas; each
requires the keys it reads and rejects, and leaves out of its manifest,
every other [sweep] and [run] key.  Both take one path: a ``_TABLES``
entry gives the row of one cell, and the rows run over the product of
the lists the kind reads, in that order.

Outputs per invocation: one trace CSV per run cell (``cell0000.csv``,
...), a ``summary.csv`` with one row per cell, and a reproduction
``manifest.txt`` holding the canonical serialized spec plus the package
version.  Given equal specs, outputs are byte-identical across runs:
seeds are fixed, the ``wall_ms`` column is always 0, and floats are
written in shortest round-trip form (summary) or with 17 significant
digits (traces).
"""

from __future__ import annotations

import enum
import itertools
import os
import sys
from dataclasses import dataclass, field, replace

from . import __version__
from .bounds import bound_report_for, report_csv_header, report_csv_row
from .cavity import (_CAVITY_CODECS, _FLOAT, _FLOATS, _INT, _INTS, REAL_FIELDS, CavityConfig,
                     _list_codec, document_lines, generate, multi_source_objective,
                     read_document, with_noise_level)
from .descent import RunConfig, SchemeKind, format_trace_csv, iter_columns
from .errors import SpecValidationError
from .problem import finite_real, positive_int
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


#: Every key of the [experiment], [cavity], [sweep] and [run] sections, in
#: canonical order, with the parser of its document value and the formatter
#: of its ExperimentSpec field ([cavity]: of its CavityConfig field).
_SPEC_KEYS = {
    "experiment": {"kind": (str, lambda kind: kind.value), "output_dir": (str, str)},
    "cavity": _CAVITY_CODECS,
    "sweep": {"schemes": _list_codec(SchemeKind, lambda scheme: scheme.value),
              "taus": _FLOATS, "ks": _INTS, "alphas": _FLOATS,
              "noise_levels": _FLOATS, "mesh_hs": _FLOATS, "deltas": _FLOATS},
    "run": {"max_outer": _INT, "tol_cost": _FLOAT, "tol_step": _FLOAT},
}

#: The real-valued [sweep] lists and [run] keys, all bounded below by 0, and
#: whether the bound is strict; a cavity axis has the bound of its field, so
#: every cavity variant of a valid spec is a valid CavityConfig.
_REAL_KEYS = {"taus": True, "alphas": False, "tol_cost": False, "tol_step": False,
              **{key: REAL_FIELDS[name] for key, name in _CAVITY_AXES}}

#: The [sweep] keys each table kind reads, all of them required.  A table
#: kind tabulates the [cavity] itself and runs no iterations, so it rejects
#: every other [sweep] and [run] key.
_TABLE_READS = {ExperimentKind.BoundReport: ("ks", "alphas"),
                ExperimentKind.CertifySweep: ("taus", "ks", "alphas")}

#: Each table kind's output file, CSV header and row of one cell: a
#: problem and one value of each of its ``_TABLE_READS`` lists, in order.
_TABLES = {
    ExperimentKind.BoundReport: (
        "bounds.csv", report_csv_header,
        lambda problem, k, alpha: report_csv_row(bound_report_for(problem, alpha, k))),
    ExperimentKind.CertifySweep: (
        "certify.csv", certificate_csv_header,
        lambda problem, tau, k, alpha: certificate_csv_row(certify(problem, tau, alpha, k))),
}


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
        for name, strict in _REAL_KEYS.items():
            values = getattr(self, name)
            for value in values if name in _SPEC_KEYS["sweep"] else (values,):
                finite_real(name, value, strict=strict, error=SpecValidationError)
        for k in self.ks:
            positive_int("ks", k, SpecValidationError)
        positive_int("max_outer", self.max_outer, SpecValidationError)

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
    sections = read_document(text, _SPEC_KEYS)
    cavity = sections.pop("cavity")
    fields = {key: value for entries in sections.values() for key, value in entries.items()}
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
    sections = [(name, document_lines(spec.cavity if name == "cavity" else spec, codecs, rejected))
                for name, codecs in _SPEC_KEYS.items()]
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
    """Enumerate the run cells, one batch per generated problem.

    The cells are numbered in the order of the product (cavity variant,
    scheme, tau, k, alpha).  Consecutive variants that differ only in
    noise_level share one problem, so it is generated once for all of them
    and the later ones draw only their noise.  All cells of one problem
    form one batch, a list of (index, cavity, scheme, tau, k, alpha) cells
    in cell order, which ``run_columns`` steps as one stack whatever their
    schemes and k.  A batch is yielded before the next problem is
    generated, so one generated problem is alive at a time.  The
    gradient-descent schemes ignore k, so their cells collapse to a single
    k.
    """
    groups = []
    for variant in spec.cavity_variants():
        if groups and variant == replace(groups[-1][-1], noise_level=variant.noise_level):
            groups[-1].append(variant)
        else:
            groups.append([variant])
    index = itertools.count()
    for group in groups:
        cavity = generate(group[0])
        cavities = [cavity, *(with_noise_level(cavity, v.noise_level) for v in group[1:])]
        yield [(next(index), cavity, scheme, tau, k, alpha)
               for cavity in cavities for scheme in spec.schemes
               for tau in spec.taus for k in (spec.ks if scheme.is_one_shot else spec.ks[:1])
               for alpha in spec.alphas]
        del cavity, cavities  # before the next problem is generated


def _run_batch(spec: ExperimentSpec, batch):
    """(cell, trace) of every cell of a batch, in order, run as the columns
    of one ``run_columns``; the cells of one cavity and alpha share an
    objective.  Each trace is formed when the caller takes it, so the
    caller holds one at a time."""
    objectives, columns = {}, []
    for _, cavity, scheme, tau, k, alpha in batch:
        key = (id(cavity), alpha)
        if key not in objectives:
            objectives[key] = multi_source_objective(
                cavity, alpha=alpha, use_noisy=cavity.config.noise_level > 0)
        columns.append((objectives[key], RunConfig(
            scheme=scheme, tau=tau, k=k, max_outer=spec.max_outer, tol_cost=spec.tol_cost,
            tol_step=spec.tol_step, sigma0=cavity.init_sigma)))
    return zip(batch, iter_columns(columns))


def print_progress(line: str) -> bool:
    """Print a progress line to stdout, best effort: False once the reader
    has gone (a closed pipe).  stdout is then pointed at os.devnull, so the
    final flush of what the failed print left buffered cannot fail too."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


def run_experiment(spec: ExperimentSpec, output_dir=None, quiet: bool = True):
    """Execute a spec; returns the list of files written (absolute paths).

    ``output_dir`` overrides the spec's own output directory.  The files
    are held in memory and written only after every cell has run, so a
    failing spec leaves no partial output behind.  Unless ``quiet``, a
    progress line per cell goes to stdout until its reader goes away.
    """
    files = {}

    manifest = (f"# oneshot-inversion {__version__}\n"
                f"# reproduction manifest: run `oneshot run --spec` on the spec below\n"
                + serialize_spec(spec))
    files["manifest.txt"] = manifest

    if spec.kind in _TABLES:
        name, header, row = _TABLES[spec.kind]
        problem = generate(spec.cavity).problem
        cells = itertools.product(*(getattr(spec, key) for key in _TABLE_READS[spec.kind]))
        files[name] = "\n".join([header(), *(row(problem, *cell) for cell in cells)]) + "\n"
    else:
        summary_rows = []
        for batch in _cells(spec):
            for (index, cavity, scheme, tau, k, alpha), trace in _run_batch(spec, batch):
                variant, n_outer = cavity.config, trace.n_outer
                if not quiet:
                    quiet = not print_progress(
                        f"cell {index:04d}: {scheme.value} tau={tau} k={k} alpha={alpha} -> "
                        f"{trace.status.value} (n={n_outer}, J={trace.final_cost:.3e})")
                files[f"cell{index:04d}.csv"] = format_trace_csv(trace)
                summary_rows.append(",".join([
                    f"{index:04d}", spec.kind.value, scheme.value,
                    _fmt(float(tau)), str(k), _fmt(float(alpha)),
                    _fmt(float(variant.noise_level)), _fmt(float(variant.mesh_h)),
                    _fmt(float(variant.delta)), str(cavity.mesh_summary.n_u),
                    str(cavity.mesh_summary.n_sigma), trace.status.value,
                    str(n_outer), str(trace.k * n_outer), _fmt(trace.final_cost),
                    _fmt(float(trace.grad_norm[-1])), _fmt(trace.final_rel_err),
                    _fmt(trace.iterations_to_cost(1e-8)),
                ]))
            del batch, cavity  # before the next problem is generated
        files["summary.csv"] = "\n".join([_SUMMARY_HEADER, *summary_rows]) + "\n"

    out = output_dir or spec.output_dir
    os.makedirs(out, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    return [os.path.join(out, name) for name in files]
