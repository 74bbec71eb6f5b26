import errno
import io
import math
import os
import re
import shutil
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from oneshot import EigensolverError, bounds, spectral
from oneshot.bounds import bound_report_for
from oneshot.cavity import format_manifest, load_problem
from oneshot.experiments import load_spec
from oneshot.matrixio import read_matrix, write_matrix
from oneshot.cli import main
from test_cavity import small_config

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

TINY_SPEC = """
[experiment]
kind = KComparison

[cavity]
mesh_h = 0.2857142857142857
n_sources = 2
inclusion_layout = -1,-1,0.5;1,0.5,0.5
sigma_subdivision = 1,1
rng_seed = 3

[sweep]
schemes = KStepOneShot
taus = 0.005
ks = 1,2

[run]
max_outer = 20
"""

BOUND_REPORT_SPEC = TINY_SPEC.replace("KComparison", "BoundReport").split("schemes")[0] \
    + "ks = 1,2\n"


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("problem")
    manifest = directory / "cavity.cfg"
    manifest.write_text(format_manifest(small_config()))
    code = main(["generate", "--spec", str(manifest), "--out",
                 str(directory / "out"), "--quiet"])
    assert code == 0
    return directory / "out"


class TestGenerate:
    def test_writes_problem_directory(self, problem_dir):
        assert (problem_dir / "B.txt").exists()
        assert (problem_dir / "manifest.txt").exists()

    def test_seed_override_changes_data(self, problem_dir, tmp_path):
        manifest = problem_dir / "manifest.txt"
        code = main(["generate", "--spec", str(manifest), "--out",
                     str(tmp_path / "reseeded"), "--seed", "99", "--quiet"])
        assert code == 0
        a = (problem_dir / "B.txt").read_bytes()
        b = (tmp_path / "reseeded" / "B.txt").read_bytes()
        assert a != b  # random background differs under the new seed

    def test_default_config_without_spec(self, tmp_path):
        code = main(["generate", "--out", str(tmp_path / "default"), "--quiet"])
        assert code == 0


class TestRunAndSweep:
    def test_run_spec(self, tmp_path):
        spec = tmp_path / "exp.cfg"
        spec.write_text(TINY_SPEC)
        code = main(["run", "--spec", str(spec), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_closed_stdout_stops_progress_but_not_the_run(self, tmp_path, monkeypatch, capsys):
        # stdout read by a pipe whose reader has gone (oneshot run | head -n 1);
        # its descriptor is a scratch file's, which the run points at os.devnull
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return scratch.fileno()

        spec = tmp_path / "exp.cfg"
        spec.write_text(TINY_SPEC)
        assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "quiet"),
                     "--quiet"]) == 0
        with open(tmp_path / "stdout", "w") as scratch:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["run", "--spec", str(spec), "--out", str(tmp_path / "piped")]) == 0
        assert capsys.readouterr().err == ""
        names = sorted(os.listdir(tmp_path / "quiet"))
        assert names == sorted(os.listdir(tmp_path / "piped")) and "summary.csv" in names
        for name in names:
            assert (tmp_path / "piped" / name).read_bytes() == \
                (tmp_path / "quiet" / name).read_bytes()

    def test_missing_spec_file_is_usage_error(self, tmp_path):
        code = main(["run", "--spec", str(tmp_path / "nope.cfg"), "--quiet"])
        assert code == 1

    def test_bad_spec_is_validation_error(self, tmp_path):
        spec = tmp_path / "exp.cfg"
        spec.write_text(TINY_SPEC.replace("taus = 0.005", "taau = 2"))
        code = main(["run", "--spec", str(spec), "--quiet"])
        assert code == 2

    def test_bad_axis_value_fails_before_any_output(self, tmp_path):
        spec = tmp_path / "exp.cfg"
        spec.write_text(TINY_SPEC.replace(
            "ks = 1,2", "ks = 1,2\nmesh_hs = 0.2857142857142857,-0.2"))
        code = main(["run", "--spec", str(spec), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 2
        assert not (tmp_path / "out" / "manifest.txt").exists()

    def test_unknown_scheme_names_its_line_and_key(self, tmp_path, capsys):
        spec = tmp_path / "exp.cfg"
        spec.write_text(TINY_SPEC.replace("schemes = KStepOneShot", "schemes = UsualGD,Foo"))
        lineno = spec.read_text().split("\n").index("schemes = UsualGD,Foo") + 1
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec), "--out", str(out), "--quiet"]) == 2
        assert f"line {lineno}: bad value for 'schemes': 'Foo'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["tol_cost = nan", "tol_step = nan"])
    def test_non_finite_tolerance_is_validation_error(self, tmp_path, line):
        spec = tmp_path / "exp.cfg"
        spec.write_text(TINY_SPEC + line + "\n")
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()

    def test_cavity_axes_on_bound_report_fail_before_any_output(self, tmp_path):
        spec = tmp_path / "exp.cfg"
        spec.write_text(BOUND_REPORT_SPEC + "mesh_hs = 0.2857142857142857,0.2\n"
                        "deltas = 0.01,0.05\n")
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()

    def test_unread_keys_on_bound_report_fail_before_any_output(self, tmp_path, capsys):
        spec = tmp_path / "exp.cfg"
        spec.write_text(BOUND_REPORT_SPEC + "schemes = UsualGD\ntaus = 0.01,0.02\n"
                        "\n[run]\nmax_outer = 5\n")
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec), "--out", str(out), "--quiet"]) == 2
        assert "never reads" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_later_variant_leaves_no_output(self, tmp_path):
        # at this seed the second mesh does not contract, so its generate
        # fails after the first variant's cells have run
        spec = tmp_path / "exp.cfg"
        spec.write_text(TINY_SPEC.replace("rng_seed = 3", "rng_seed = 7").replace(
            "ks = 1,2", "ks = 1,2\nmesh_hs = 0.2857142857142857,0.25").replace(
            "max_outer = 20", "max_outer = 3"))
        out = tmp_path / "out"
        code = main(["run", "--spec", str(spec), "--out", str(out), "--quiet"])
        assert code == 3
        assert not out.exists() or not any(out.iterdir())


NON_FINITE_CAVITY = [
    ("omega", "inf"), ("sigma0_bar", "inf"), ("delta", "nan"), ("delta", "inf"),
    ("mesh_h", "inf"), ("domain_radius", "inf"), ("noise_level", "nan"),
    ("noise_level", "inf"), ("data_scale", "inf"), ("source_radius", "inf"),
    ("inclusion_layout", "-1,-1,nan;1,0.5,0.5"), ("sigma_exact", "nan"),
    ("sigma_init", "inf"),
]


def with_cavity_value(text, key, value):
    """Set ``key = value`` in a manifest or in the [cavity] section of a spec."""
    line = f"{key} = {value}"
    if re.search(rf"^{key} = ", text, flags=re.M):
        return re.sub(rf"^{key} = .*$", line, text, flags=re.M)
    return text.replace("[cavity]\n", f"[cavity]\n{line}\n")


class TestNonFiniteCavityValues:
    @pytest.mark.parametrize("key,value", NON_FINITE_CAVITY)
    def test_generate(self, tmp_path, capsys, key, value):
        manifest = tmp_path / "cavity.cfg"
        manifest.write_text(with_cavity_value(format_manifest(small_config()), key, value))
        out = tmp_path / "out"
        assert main(["generate", "--spec", str(manifest), "--out", str(out), "--quiet"]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", NON_FINITE_CAVITY)
    def test_run(self, tmp_path, capsys, key, value):
        spec = tmp_path / "exp.cfg"
        spec.write_text(with_cavity_value(TINY_SPEC, key, value))
        out = tmp_path / "out"
        assert main(["run", "--spec", str(spec), "--out", str(out), "--quiet"]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key,value", [("omega", "abc"), ("sigma_subdivision", "1,x"),
                                       ("normalize_data", "maybe")])
def test_generate_names_the_bad_manifest_key(tmp_path, capsys, key, value):
    text = with_cavity_value(format_manifest(small_config()), key, value)
    lineno = text.split("\n").index(f"{key} = {value}") + 1
    manifest = tmp_path / "cavity.cfg"
    manifest.write_text(text)
    out = tmp_path / "out"
    assert main(["generate", "--spec", str(manifest), "--out", str(out), "--quiet"]) == 2
    assert f"line {lineno}: bad value for {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_fails_before_any_output(tmp_path, capsys):
    for command, spec in (("generate", None), ("run", os.path.join(CONFIG_DIR, "exp_mesh.cfg"))):
        out = tmp_path / f"{command}_out"
        args = [command, "--out", str(out), "--seed", "-1", "--quiet"]
        assert main(args + (["--spec", spec] if spec else [])) == 2
        assert "rng_seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("layout", ["-1,-1,0.5;1,0.5,-0.5", "-1,-1,0.5;1,0.5,0",
                                    "-1,-1,0.5;1,0.5"])
def test_bad_inclusion_geometry_fails_before_any_output(tmp_path, capsys, layout):
    for command, text in (("generate", format_manifest(small_config())), ("run", TINY_SPEC)):
        path = tmp_path / f"{command}.cfg"
        path.write_text(with_cavity_value(text, "inclusion_layout", layout))
        out = tmp_path / f"{command}_out"
        assert main([command, "--spec", str(path), "--out", str(out), "--quiet"]) == 2
        assert "inclusion_layout" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key", ["sigma_exact", "sigma_init"])
@pytest.mark.parametrize("value", ["9,10,11", ""])
def test_per_inclusion_length_fails_before_any_output(tmp_path, capsys, key, value):
    # both cavities have two inclusions
    for command, text in (("generate", format_manifest(small_config())), ("run", TINY_SPEC)):
        path = tmp_path / f"{command}.cfg"
        path.write_text(with_cavity_value(text, key, value))
        out = tmp_path / f"{command}_out"
        assert main([command, "--spec", str(path), "--out", str(out), "--quiet"]) == 2
        assert f"{key}: expected a scalar or 2 per-inclusion values" in capsys.readouterr().err
        assert not out.exists()


class TestBoundsAndCertify:
    def test_bounds_to_file(self, problem_dir, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--problem", str(problem_dir), "--alpha", "1e-3",
                     "--k", "2", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().split("\n")
        assert header.startswith("k,alpha,normB")
        assert row.startswith("2,0.001,")

    def test_bounds_to_stdout(self, problem_dir, capsys):
        code = main(["bounds", "--problem", str(problem_dir)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "tau_max" in captured.split("\n")[0] or "binding" in captured

    def test_certify(self, problem_dir, tmp_path):
        out = tmp_path / "cert.csv"
        spectrum = tmp_path / "spectrum.csv"
        code = main(["certify", "--problem", str(problem_dir), "--tau", "0.001",
                     "--k", "2", "--out", str(out), "--spectrum", str(spectrum)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "tau,alpha,k,spectral_radius,min_dist_to_one,convergent"
        spec_rows = spectrum.read_text().strip().split("\n")
        assert spec_rows[0] == "re,im"

    def test_block_and_kron_containers_agree(self, problem_dir, tmp_path, capsys):
        stacked = load_problem(problem_dir)[0]
        assert stacked.n_blocks == 2
        kron_dir = tmp_path / "kron"
        shutil.copytree(problem_dir, kron_dir)
        for name in ("B", "H"):
            write_matrix(kron_dir / f"{name}.txt",
                         np.kron(np.eye(2), getattr(stacked, name)))
        assert load_problem(kron_dir)[0].n_blocks == 1

        def csv_rows(directory, *args):
            capsys.readouterr()
            assert main([args[0], "--problem", str(directory), *args[1:]]) == 0
            return [row.split(",") for row in capsys.readouterr().out.strip().split("\n")]

        for args in (("bounds", "--alpha", "1e-3", "--k", "1"),
                     ("bounds", "--alpha", "1e-3", "--k", "3"),
                     ("certify", "--tau", "0.001", "--k", "2")):
            ours, oracle = csv_rows(problem_dir, *args), csv_rows(kron_dir, *args)
            assert ours[0] == oracle[0]
            for a, b in zip(ours[1], oracle[1]):
                try:
                    assert math.isclose(float(a), float(b), rel_tol=1e-10)
                except ValueError:
                    assert a == b

    def test_block_count_must_divide_m_rows(self, problem_dir, tmp_path):
        bad_dir = tmp_path / "bad"
        shutil.copytree(problem_dir, bad_dir)
        M = read_matrix(bad_dir / "M.txt")
        write_matrix(bad_dir / "M.txt", M[:-1])
        assert main(["bounds", "--problem", str(bad_dir)]) == 3

    def test_theta0_quarter_pi_only_at_k1(self, problem_dir, capsys):
        capsys.readouterr()
        quarter_pi = repr(math.pi / 4)
        assert main(["bounds", "--problem", str(problem_dir), "--k", "1",
                     "--theta0", quarter_pi]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert 0.0 < float(fields["tau_max"]) < math.inf
        assert fields["theta0"] == quarter_pi
        assert main(["bounds", "--problem", str(problem_dir), "--k", "2",
                     "--theta0", quarter_pi]) == 2
        captured = capsys.readouterr()
        assert "theta0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("signs", [("-", "-"), ("-", ""), ("", "-")])
    def test_negative_header_dimensions_are_validation_errors(self, problem_dir, tmp_path,
                                                              capsys, signs):
        # H's own dimensions with signs flipped; both negative used to fail
        # in reshape with numpy's "can only specify one unknown dimension"
        bad_dir = tmp_path / "bad"
        shutil.copytree(problem_dir, bad_dir)
        path = bad_dir / "H.txt"
        header, entries = path.read_text().split("\n", 1)
        rows, cols = header.split()[2:]
        bad_header = f"oneshot-matrix v1 {signs[0]}{rows} {signs[1]}{cols}"
        path.write_text(f"{bad_header}\n{entries}")
        capsys.readouterr()
        assert main(["bounds", "--problem", str(bad_dir)]) == 2
        captured = capsys.readouterr()
        assert f"bad dimensions in header: {bad_header!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ("bounds", "--alpha", "nan", "--k", "3"),
        ("bounds", "--alpha", "nan", "--k", "1"),
        ("bounds", "--alpha", "inf", "--k", "3"),
        ("bounds", "--delta0", "inf", "--k", "3"),
        ("certify", "--alpha", "inf", "--tau", "0.01"),
        ("certify", "--tau", "nan"),
        ("certify", "--tau", "nan", "--size-guard", "10"),
        ("certify", "--tau", "inf"),
    ])
    def test_non_finite_input_is_validation_error(self, problem_dir, args, capsys):
        # such values used to print an "unbounded" or convergent certificate
        assert main([args[0], "--problem", str(problem_dir), *args[1:]]) == 2
        assert capsys.readouterr().out == ""

    def test_missing_problem_dir_is_usage_error(self, tmp_path):
        code = main(["bounds", "--problem", str(tmp_path / "missing")])
        assert code == 1

    def test_arnoldi_failure_is_numerical_failure(self, problem_dir, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(spectral, "eigs", no_convergence)
        assert main(["certify", "--problem", str(problem_dir), "--tau", "0.001"]) == 3
        captured = capsys.readouterr()
        assert "Arnoldi" in captured.err and captured.out == ""

    def test_s_of_failure_is_numerical_failure(self, tmp_path, capsys):
        # an 81-wide block takes the s(B^k) path by default; both LAPACK
        # steps of the level-set eigensolve (the LU solve and the eigvals
        # call) map to EigensolverError
        manifest = tmp_path / "coarse.cfg"
        manifest.write_text(format_manifest(small_config(mesh_h=0.4,
                                                         sigma_subdivision=(1, 1))))
        assert main(["generate", "--spec", str(manifest), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 0

        for step, message in (("eigvals", "eig algorithm did not converge"),
                              ("solve", "Matrix is singular.")):
            def failing(*args, message=message, **kwargs):
                raise np.linalg.LinAlgError(message)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bounds, step, failing)
                with pytest.raises(EigensolverError, match=message):
                    bound_report_for(load_problem(tmp_path / "out")[0], alpha=1e-3, k=3)
                capsys.readouterr()
                assert main(["bounds", "--problem", str(tmp_path / "out"), "--k", "3"]) == 3
            captured = capsys.readouterr()
            assert "numerical failure" in captured.err and captured.out == ""


@pytest.fixture(scope="module")
def fine_mesh_dir(tmp_path_factory):
    """The exp_mesh cavity at mesh_h = 0.2 (block dimension 4335)."""
    directory = tmp_path_factory.mktemp("fine")
    config = replace(load_spec(os.path.join(CONFIG_DIR, "exp_mesh.cfg")).cavity, mesh_h=0.2)
    (directory / "cavity.cfg").write_text(format_manifest(config))
    assert main(["generate", "--spec", str(directory / "cavity.cfg"), "--out",
                 str(directory / "out"), "--quiet"]) == 0
    return directory / "out"


class TestCertifyAboveSizeGuard:
    def tau_max(self, problem_dir, capsys):
        capsys.readouterr()
        assert main(["bounds", "--problem", str(problem_dir), "--k", "2"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        return dict(zip(header.split(","), row.split(",")))["tau_max"]

    def test_certifies_beyond_the_dense_guard(self, fine_mesh_dir, capsys):
        problem = load_problem(fine_mesh_dir)[0]
        assert 2 * problem.n_u + problem.n_sigma == 4335 > spectral.SIZE_GUARD
        tau = self.tau_max(fine_mesh_dir, capsys)
        assert main(["certify", "--problem", str(fine_mesh_dir), "--tau", tau,
                     "--k", "2"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        assert dict(zip(header.split(","), row.split(",")))["convergent"] == "true"

    def test_spectrum_stays_guarded(self, fine_mesh_dir, tmp_path, capsys):
        tau = self.tau_max(fine_mesh_dir, capsys)
        spectrum = tmp_path / "spectrum.csv"
        assert main(["certify", "--problem", str(fine_mesh_dir), "--tau", tau, "--k", "2",
                     "--spectrum", str(spectrum)]) == 3
        captured = capsys.readouterr()
        assert "size guard" in captured.err and captured.out == ""
        assert not spectrum.exists()


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_sweep_is_not_a_command(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--spec", str(tmp_path / "exp.cfg")])
        assert excinfo.value.code == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        # rho(B) >= 1 at this mesh and seed: generation must fail with exit code 3
        manifest = tmp_path / "bad.cfg"
        manifest.write_text(format_manifest(small_config(mesh_h=0.25, n_sources=6,
                                                         rng_seed=7)))
        code = main(["generate", "--spec", str(manifest), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 3
