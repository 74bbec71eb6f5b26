import dataclasses

import numpy as np
import pytest

from oneshot import SingularSystemError, SpecParseError, SpecValidationError
from oneshot import descent, experiments
from oneshot.cavity import CavityConfig, generate, parse_manifest
from oneshot.experiments import (ExperimentKind, ExperimentSpec, _cells, _kind_keys,
                                 parse_spec, run_experiment, serialize_spec)
from conftest import spy
from test_cavity import EVERY_FIELD_LINES, every_field_config

def cells_in_order(spec):
    """The (index, cavity, scheme, tau, k, alpha) cells of every batch, by index."""
    return sorted((cell for batch in _cells(spec) for cell in batch), key=lambda cell: cell[0])


MINIMAL = """
[experiment]
kind = TauSweep

[cavity]
mesh_h = 0.2857142857142857
n_sources = 2
inclusion_layout = -1,-1,0.5;1,0.5,0.5
sigma_subdivision = 1,1
rng_seed = 3

[sweep]
schemes = UsualGD
taus = 0.01
"""


def table_spec(kind):
    """MINIMAL as a table kind, without the keys that kind never reads."""
    text = MINIMAL.replace("kind = TauSweep", f"kind = {kind}") \
                  .replace("schemes = UsualGD\n", "")
    return text.replace("taus = 0.01\n", "") if kind == "BoundReport" else text


class TestParseSpec:
    def test_minimal_with_defaults(self):
        spec = parse_spec(MINIMAL)
        assert spec.kind is ExperimentKind.TauSweep
        assert spec.taus == (0.01,)
        assert spec.ks == (1,)
        assert spec.alphas == (0.0,)
        assert spec.max_outer == 200
        assert spec.cavity.n_sources == 2

    def test_unknown_key_reports_line_and_name(self):
        text = MINIMAL.replace("taus = 0.01", "taau = 2")
        with pytest.raises(SpecParseError) as excinfo:
            parse_spec(text)
        message = str(excinfo.value)
        assert "taau" in message and "line" in message
        assert excinfo.value.line is not None

    def test_unknown_section(self):
        with pytest.raises(SpecParseError, match="unknown section"):
            parse_spec("[nonsense]\nx = 1\n")

    def test_entry_before_section(self):
        with pytest.raises(SpecParseError, match="before any"):
            parse_spec("kind = TauSweep\n")

    def test_bad_value_reports_line(self):
        text = MINIMAL.replace("taus = 0.01", "taus = zebra")
        with pytest.raises(SpecParseError, match="taus"):
            parse_spec(text)

    def test_unknown_kind(self):
        with pytest.raises(SpecValidationError, match="NoSuchKind"):
            parse_spec(MINIMAL.replace("TauSweep", "NoSuchKind"))

    def test_missing_required_lists(self):
        text = MINIMAL.replace("taus = 0.01", "")
        with pytest.raises(SpecValidationError, match="taus"):
            parse_spec(text)
        with pytest.raises(SpecValidationError, match="mesh_hs"):
            parse_spec(MINIMAL.replace("TauSweep", "MeshRobustness"))

    # the table kinds run on the [cavity] alone, so a listed axis would be
    # recorded in the manifest without being swept
    @pytest.mark.parametrize("kind", ["BoundReport", "CertifySweep"])
    @pytest.mark.parametrize("axis", ["noise_levels = 0.0,0.01",
                                      "mesh_hs = 0.2857142857142857,0.2",
                                      "deltas = 0.01,0.05"])
    def test_table_kinds_reject_cavity_axes(self, kind, axis):
        text = table_spec(kind) + axis + "\n"
        with pytest.raises(SpecValidationError, match=axis.split()[0]):
            parse_spec(text)

    # likewise the keys of the iteration runs, and BoundReport's taus
    @pytest.mark.parametrize("kind, lines", [
        ("BoundReport", "schemes = UsualGD"), ("BoundReport", "taus = 0.01,0.02"),
        ("BoundReport", "\n[run]\nmax_outer = 5"), ("BoundReport", "\n[run]\ntol_cost = 0.0"),
        ("CertifySweep", "schemes = UsualGD"), ("CertifySweep", "\n[run]\nmax_outer = 200"),
        ("CertifySweep", "\n[run]\ntol_step = 1e-9"),
    ])
    def test_table_kinds_reject_unread_keys(self, kind, lines):
        key = lines.split()[-3]
        with pytest.raises(SpecValidationError, match=key):
            parse_spec(table_spec(kind) + lines + "\n")

    @pytest.mark.parametrize("kind, taus", [("BoundReport", ()), ("CertifySweep", (0.01,))])
    def test_table_kinds_reject_run_values(self, kind, taus):
        # a spec built in code must serialize to a document that parses back
        with pytest.raises(SpecValidationError, match="max_outer"):
            ExperimentSpec(kind=kind, taus=taus, max_outer=5)

    def test_validation_rules(self):
        with pytest.raises(SpecValidationError, match="^taus must be finite and > 0, got -1.0$"):
            parse_spec(MINIMAL.replace("taus = 0.01", "taus = -1.0"))
        bad_k = MINIMAL + "ks = 0\n"
        with pytest.raises(SpecValidationError, match="ks"):
            parse_spec(bad_k)

    @pytest.mark.parametrize("kind, name, value", [
        ("TauSweep", "ks", (True,)), ("TauSweep", "ks", (1.5,)),
        ("TauSweep", "max_outer", 2.5), ("TauSweep", "max_outer", True),
        ("BoundReport", "ks", (1.5, True))])
    def test_counts_must_be_integers(self, kind, name, value):
        # a spec built in code is checked like a parsed one, which reads int()
        spec = parse_spec(MINIMAL if kind == "TauSweep" else table_spec(kind))
        with pytest.raises(SpecValidationError, match=f"{name} must be a positive integer"):
            dataclasses.replace(spec, **{name: value})

    def test_negative_rng_seed_is_a_validation_error(self):
        # the [cavity] parser reads the seed with int(), so the sign is checked
        # when the spec is built, not first inside run_experiment
        with pytest.raises(SpecValidationError, match="rng_seed must be a non-negative integer"):
            parse_spec(MINIMAL.replace("rng_seed = 3", "rng_seed = -1"))

    @pytest.mark.parametrize("line", ["tol_cost = nan", "tol_cost = inf", "tol_cost = -1",
                                      "tol_step = nan", "tol_step = inf", "tol_step = -1"])
    def test_tolerances_must_be_finite_and_non_negative(self, line):
        with pytest.raises(SpecValidationError, match=line.split()[0]):
            parse_spec(MINIMAL + "\n[run]\n" + line + "\n")

    def test_round_trip(self):
        spec = parse_spec(MINIMAL)
        again = parse_spec(serialize_spec(spec))
        assert again == spec
        # a fuller spec with every sweep list populated
        full = ExperimentSpec(
            kind=ExperimentKind.NoiseStudy, cavity=spec.cavity,
            schemes=("SemiImplicitGD", "SemiImplicitKStepOneShot"),
            taus=(0.1, 0.2), ks=(1, 3), alphas=(0.0, 1e-4),
            noise_levels=(0.01, 0.03), max_outer=17, tol_cost=1e-9,
            tol_step=1e-7, output_dir="somewhere")
        assert parse_spec(serialize_spec(full)) == full
        for kind in ("BoundReport", "CertifySweep"):
            table = parse_spec(table_spec(kind) + "ks = 1,3\nalphas = 0.0,0.1\n")
            assert parse_spec(serialize_spec(table)) == table

    def test_table_kinds_reject_what_they_never_read(self):
        iteration_keys = ("schemes", "noise_levels", "mesh_hs", "deltas",
                          "max_outer", "tol_cost", "tol_step")
        assert set(_kind_keys(ExperimentKind.BoundReport)[1]) == {"taus", *iteration_keys}
        assert set(_kind_keys(ExperimentKind.CertifySweep)[1]) == set(iteration_keys)
        assert _kind_keys(ExperimentKind.NoiseStudy)[1] == []

    def test_canonical_text(self):
        # every key's canonical value, byte for byte
        spec = ExperimentSpec(
            kind=ExperimentKind.NoiseStudy, cavity=every_field_config(),
            schemes=("SemiImplicitGD", "KStepOneShot"), taus=(0.5, 1.25), ks=(2, 5),
            alphas=(0.0, 0.0001), noise_levels=(0.01, 0.05), mesh_hs=(0.25, 0.2),
            deltas=(0.02, 0.04), max_outer=123, tol_cost=1e-10, tol_step=1e-8,
            output_dir="out/full")
        assert serialize_spec(spec) == (
            "[experiment]\nkind = NoiseStudy\noutput_dir = out/full\n\n"
            "[cavity]\n" + EVERY_FIELD_LINES + "\n"
            "[sweep]\nschemes = SemiImplicitGD,KStepOneShot\ntaus = 0.5,1.25\nks = 2,5\n"
            "alphas = 0.0,0.0001\nnoise_levels = 0.01,0.05\nmesh_hs = 0.25,0.2\n"
            "deltas = 0.02,0.04\n\n"
            "[run]\nmax_outer = 123\ntol_cost = 1e-10\ntol_step = 1e-08\n")
        assert parse_spec(serialize_spec(spec)) == spec

    def test_comments_ignored(self):
        spec = parse_spec(MINIMAL.replace("taus = 0.01", "taus = 0.01  # step"))
        assert spec.taus == (0.01,)

    @pytest.mark.parametrize("lines", ["taus = 0.01", "\n[sweep]\ntaus = 0.02"])
    def test_duplicated_key_names_both_lines(self, lines):
        text = MINIMAL + lines + "\n"
        first, second = MINIMAL.split("\n").index("taus = 0.01") + 1, text.count("\n")
        with pytest.raises(SpecParseError, match=rf"^line {second}: key 'taus' in \[sweep\] "
                                                 rf"given twice, on lines {first} and {second}$"):
            parse_spec(text)

    def test_unknown_scheme_names_its_line_and_key(self):
        text = MINIMAL.replace("schemes = UsualGD", "schemes = UsualGD,Foo")
        lineno = text.split("\n").index("schemes = UsualGD,Foo") + 1
        with pytest.raises(SpecParseError, match=rf"^line {lineno}: bad value for 'schemes': "
                                                 "'Foo' is not a valid SchemeKind$") as excinfo:
            parse_spec(text)
        assert excinfo.value.line == lineno


#: A [cavity] body, lines 2 to 7 of both documents built from it.
CAVITY_BODY = """\
mesh_h = 0.2857142857142857
n_sources = 2  # two incident fields
inclusion_layout = -1,-1,0.5;1,0.5,0.5
sigma_subdivision = 1,1
# a comment line
rng_seed = 3
"""


def as_manifest(body):
    return "oneshot-cavity v1\n" + body


def as_spec(body):
    return "[cavity]\n" + body + "\n[experiment]\nkind = BoundReport\n\n[sweep]\nks = 1\n"


class TestOneReader:
    """A manifest and a spec's [cavity] section are read by the same code."""

    def test_same_config(self):
        expected = CavityConfig(mesh_h=0.2857142857142857, n_sources=2, rng_seed=3,
                                inclusion_layout=((-1, -1, 0.5), (1, 0.5, 0.5)),
                                sigma_subdivision=(1, 1), delta=0.02)
        body = CAVITY_BODY + "delta = 0.02  # contrast\n"
        assert parse_manifest(as_manifest(body)) == expected
        assert parse_spec(as_spec(body)).cavity == expected

    @pytest.mark.parametrize("line, message", [
        ("delta = abc", "bad value for 'delta': could not convert string to float: 'abc'"),
        ("delta 0.02", "expected 'key = value', got 'delta 0.02'"),
        ("rng_seed = 4  # again", "key 'rng_seed'{where} given twice, on lines 7 and 8"),
        ("rng_sed = 4", "unknown key 'rng_sed'{where}"),
    ])
    def test_same_errors(self, line, message):
        body = CAVITY_BODY + line + "\n"
        with pytest.raises(ValueError) as from_manifest:
            parse_manifest(as_manifest(body))
        with pytest.raises(SpecParseError) as from_spec:
            parse_spec(as_spec(body))
        assert str(from_manifest.value) == "line 8: " + message.format(where="")
        assert str(from_spec.value) == "line 8: " + message.format(where=" in [cavity]")
        assert from_manifest.value.line == from_spec.value.line == 8


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    text = MINIMAL.replace("schemes = UsualGD",
                           "schemes = UsualGD,KStepOneShot") \
                  .replace("taus = 0.01", "taus = 0.002,0.5") \
        + "ks = 1,2\n\n[run]\nmax_outer = 60\ntol_cost = 1e-13\n"
    spec = parse_spec(text)
    files = run_experiment(spec, output_dir=str(out))
    return out, files, spec


class TestRunExperiment:

    def test_outputs_present(self, sweep_dir):
        out, files, spec = sweep_dir
        names = {f.split("/")[-1] for f in files}
        assert "manifest.txt" in names and "summary.csv" in names
        # GD collapses the k list: 2 taus * (1 + 2) = 6 cells
        assert sum(1 for n in names if n.startswith("cell")) == 6

    def test_summary_records_divergence(self, sweep_dir):
        out, _, _ = sweep_dir
        rows = (out / "summary.csv").read_text().strip().split("\n")
        statuses = {row.split(",")[11] for row in rows[1:]}
        assert "diverged" in statuses  # tau = 0.5 is far beyond stability
        assert any(s in statuses for s in ("tol_cost", "max_outer"))

    @pytest.mark.parametrize("missing", ["guard_row", "reference"])
    def test_a_missing_error_is_written_empty(self, missing, tmp_path, monkeypatch):
        if missing == "reference":
            def singular(objective):
                raise SingularSystemError("singular normal equations")

            monkeypatch.setattr(descent, "regularized_solution", singular)
        else:
            # tau * M* p overflows on the first step, so the run ends on a guard row
            real = experiments.iter_columns
            monkeypatch.setattr(experiments, "iter_columns", lambda columns: real(
                [(o, dataclasses.replace(c, tau=1e300, p0=np.full(o.problem.n_u, 1e300)))
                 for o, c in columns]))
        spec = parse_spec(MINIMAL.replace("schemes = UsualGD", "schemes = KStepOneShot")
                          + "\n[run]\nmax_outer = 5\n")
        with np.errstate(over="ignore", invalid="ignore"):
            run_experiment(spec, output_dir=str(tmp_path))
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        summary = dict(zip(lines[0].split(","), lines[1].split(",")))
        rels = [line.split(",")[3]
                for line in (tmp_path / "cell0000.csv").read_text().splitlines()[1:]]
        assert summary["final_rel_err_sigma"] == ""
        if missing == "reference":
            assert summary["status"] == "max_outer" and rels == [""] * 6
        else:
            assert (summary["status"], summary["n_outer"], summary["final_cost"]) == \
                ("diverged", "1", "inf")
            assert rels[0] != "" and rels[1] == ""

    def test_manifest_reparses(self, sweep_dir):
        out, _, spec = sweep_dir
        text = (out / "manifest.txt").read_text()
        body = "\n".join(line for line in text.split("\n")
                         if not line.startswith("#"))
        assert parse_spec(body) == spec

    def test_reproducible_byte_identical(self, tmp_path):
        spec = parse_spec(MINIMAL + "\n[run]\nmax_outer = 25\n")
        run_experiment(spec, output_dir=str(tmp_path / "a"))
        run_experiment(spec, output_dir=str(tmp_path / "b"))
        for name in ("manifest.txt", "summary.csv", "cell0000.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_noise_study_at_zero_matches_clean_run(self, tmp_path):
        noise_text = MINIMAL.replace("kind = TauSweep", "kind = NoiseStudy") \
            + "noise_levels = 0.0\n\n[run]\nmax_outer = 25\n"
        clean_text = MINIMAL + "\n[run]\nmax_outer = 25\n"
        run_experiment(parse_spec(noise_text), output_dir=str(tmp_path / "noise"))
        run_experiment(parse_spec(clean_text), output_dir=str(tmp_path / "clean"))
        assert (tmp_path / "noise" / "cell0000.csv").read_bytes() == \
            (tmp_path / "clean" / "cell0000.csv").read_bytes()

    def test_bound_report_kind(self, tmp_path):
        text = table_spec("BoundReport") + "ks = 1,2\nalphas = 0.0,0.001\n"
        spec = parse_spec(text)
        run_experiment(spec, output_dir=str(tmp_path))
        rows = (tmp_path / "bounds.csv").read_text().strip().split("\n")
        assert len(rows) == 5
        assert rows[0].startswith("k,alpha")

    def test_certify_sweep_kind(self, tmp_path):
        text = table_spec("CertifySweep") + "ks = 1\nalphas = 0.0\n"
        spec = parse_spec(text)
        run_experiment(spec, output_dir=str(tmp_path))
        rows = (tmp_path / "certify.csv").read_text().strip().split("\n")
        assert rows[0] == "tau,alpha,k,spectral_radius,min_dist_to_one,convergent"
        assert rows[1].endswith("true") or rows[1].endswith("false")

    def test_mesh_robustness_kind(self, tmp_path):
        text = MINIMAL.replace("kind = TauSweep", "kind = MeshRobustness") \
            + "mesh_hs = 0.2857142857142857,0.2\n" \
            + "\n[run]\nmax_outer = 10\n"
        spec = parse_spec(text)
        run_experiment(spec, output_dir=str(tmp_path))
        rows = (tmp_path / "summary.csv").read_text().strip().split("\n")
        assert len(rows) == 3  # one scheme x one tau x two meshes
        n_us = {row.split(",")[9] for row in rows[1:]}
        assert len(n_us) == 2

    @pytest.mark.parametrize("kind", ["TauSweep", "KComparison", "NoiseStudy",
                                      "MeshRobustness", "DeltaDependence"])
    def test_every_listed_axis_is_swept_under_every_kind(self, kind, tmp_path):
        # every axis value differs from the [cavity] default it replaces
        text = MINIMAL.replace("kind = TauSweep", f"kind = {kind}") \
            + "noise_levels = 0.01\nmesh_hs = 0.2857142857142857,0.2\n" \
            + "deltas = 0.02\n\n[run]\nmax_outer = 10\n"
        run_experiment(parse_spec(text), output_dir=str(tmp_path))
        rows = [row.split(",") for row in
                (tmp_path / "summary.csv").read_text().strip().split("\n")[1:]]
        assert len(rows) == 2  # one scheme x one tau x two meshes
        assert {row[1] for row in rows} == {kind}
        assert {row[6] for row in rows} == {"0.01"}
        assert {row[8] for row in rows} == {"0.02"}
        assert len({row[9] for row in rows}) == 2
        assert sorted(p.name for p in tmp_path.glob("cell*.csv")) == \
            ["cell0000.csv", "cell0001.csv"]


class TestCavityVariants:
    def test_product_of_listed_axes_in_order(self):
        spec = parse_spec(MINIMAL + "noise_levels = 0.0,0.01\n"
                          "mesh_hs = 0.2857142857142857,0.2\ndeltas = 0.01,0.02\n")
        variants = spec.cavity_variants()
        assert [(v.noise_level, v.mesh_h, v.delta) for v in variants] == [
            (e, h, d) for e in (0.0, 0.01) for h in (0.2857142857142857, 0.2)
            for d in (0.01, 0.02)]
        assert all(v.rng_seed == spec.cavity.rng_seed for v in variants)

    def test_noise_levels_share_one_problem(self, monkeypatch):
        spec = parse_spec(MINIMAL.replace("kind = TauSweep", "kind = NoiseStudy")
                          + "noise_levels = 0.01,0.03,0.0\n")
        generated = spy(monkeypatch, experiments, "generate")
        cavities = [cell[1] for cell in cells_in_order(spec)]
        assert len(generated) == 1 and len({id(c.problem) for c in cavities}) == 1
        for cavity, variant in zip(cavities, spec.cavity_variants()):
            assert cavity.config == variant
            assert np.array_equal(cavity.stacked_noisy, generate(variant).stacked_noisy)

    def test_other_axes_regenerate(self, monkeypatch):
        # noise is the outer axis, so consecutive variants differ in mesh_h
        spec = parse_spec(MINIMAL + "noise_levels = 0.0,0.01\n"
                          "mesh_hs = 0.2857142857142857,0.2\n")
        generated = spy(monkeypatch, experiments, "generate")
        assert [cell[1].config for cell in cells_in_order(spec)] == spec.cavity_variants()
        assert len(generated) == 4

    def test_no_axis_keeps_the_cavity(self):
        spec = parse_spec(MINIMAL)
        assert spec.noise_levels == ()
        assert spec.cavity_variants() == [spec.cavity]

    def test_bad_axis_value_is_a_validation_error(self):
        with pytest.raises(SpecValidationError, match="mesh_h"):
            parse_spec(MINIMAL + "mesh_hs = 0.2857142857142857,-0.2\n")
        with pytest.raises(SpecValidationError, match="noise_level"):
            parse_spec(MINIMAL + "noise_levels = -0.1\n")
