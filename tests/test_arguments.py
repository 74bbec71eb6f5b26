"""Every real-valued scalar argument fails the same way.

One table lists the entry points that take a real scalar (a step tau, a
Tikhonov weight alpha, a tolerance, a norm, a cavity scalar) with the
argument's name and whether its lower bound 0 is strict.  A bool, NaN,
+-inf and a value below the bound (0 itself where the bound is strict)
must raise a ValueError whose message names the argument; a spec document
raises SpecValidationError.  Through the command line each exits 2.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from oneshot import (CaseParameters, CavityConfig, Objective, RunConfig, SchemeKind,
                     SpecParseError, SpecValidationError, bound_report_for, certify,
                     eigen_equation_residual, iteration_matrix_semi_implicit, spectrum,
                     sufficient_tau_k_step)
from oneshot.cavity import format_manifest
from oneshot.cli import main
from oneshot.experiments import parse_spec
from conftest import make_problem
from test_cavity import small_config
from test_experiments import MINIMAL

PROBLEM = make_problem(4)
UNIT_Y = np.eye(PROBLEM.n_sigma)[0]
S_INPUTS = dict(norm_Bk=0.125, norm_Tk=1.75, norm_Xk=2.5, s_Bk=1.2)


def norms_call(name):
    def call(value):
        inputs = dict(norm_B=0.5, norm_M=1.0, norm_H=1.0, alpha=0.0, **S_INPUTS)
        sufficient_tau_k_step(k=3, **{**inputs, name: value})
    return call


def with_value(text, key, value):
    """Set ``key = value`` in a spec: in its own line if present, else in
    [cavity] for a cavity key, [run] for a tolerance and [sweep] otherwise."""
    line = f"{key} = {value}"
    if re.search(rf"^{key} = ", text, flags=re.M):
        return re.sub(rf"^{key} = .*$", line, text, flags=re.M)
    if key in CAVITY_STRICT:
        return text.replace("[cavity]\n", f"[cavity]\n{line}\n")
    return text + ("\n[run]\n" if key.startswith("tol_") else "") + line + "\n"


def spec_call(key):
    def call(value):
        if isinstance(value, bool):  # a document cannot spell a bool as a real
            spec = parse_spec(MINIMAL)  # and a [cavity] bool fails in CavityConfig
            values = (value,) if isinstance(getattr(spec, key), tuple) else value
            dataclasses.replace(spec, **{key: values})
        else:
            parse_spec(with_value(MINIMAL, key, repr(value)))
    return call


CAVITY_STRICT = {"omega": True, "sigma0_bar": True, "delta": False, "mesh_h": True,
                 "domain_radius": True, "noise_level": False, "data_scale": True}
SPEC_STRICT = {"taus": True, "alphas": False, "tol_cost": False, "tol_step": False,
               "noise_levels": False, "mesh_hs": True, "deltas": False}

#: (entry point, argument, strict, call with the argument set to a value)
ENTRIES = [
    ("RunConfig", "tau", True, lambda v: RunConfig(SchemeKind.UsualGD, tau=v)),
    ("RunConfig", "tol_cost", False,
     lambda v: RunConfig(SchemeKind.UsualGD, tau=0.1, tol_cost=v)),
    ("RunConfig", "tol_step", False,
     lambda v: RunConfig(SchemeKind.UsualGD, tau=0.1, tol_step=v)),
    ("Objective", "alpha", False, lambda v: Objective(PROBLEM, np.zeros(PROBLEM.n_g), v)),
    ("certify", "tau", True, lambda v: certify(PROBLEM, v, 0.0, 2)),
    ("certify", "alpha", False, lambda v: certify(PROBLEM, 0.1, v, 2)),
    ("spectrum", "tau", True, lambda v: spectrum(PROBLEM, v, 0.0, 2)),
    ("spectrum", "alpha", False, lambda v: spectrum(PROBLEM, 0.1, v, 2)),
    ("iteration_matrix_semi_implicit", "tau", True,
     lambda v: iteration_matrix_semi_implicit(PROBLEM, v, 0.0, 2)),
    ("iteration_matrix_semi_implicit", "alpha", False,
     lambda v: iteration_matrix_semi_implicit(PROBLEM, 0.1, v, 2)),
    ("eigen_equation_residual", "tau", True,
     lambda v: eigen_equation_residual(PROBLEM, 2.0, UNIT_Y, v, 0.0, 2)),
    ("eigen_equation_residual", "alpha", False,
     lambda v: eigen_equation_residual(PROBLEM, 2.0, UNIT_Y, 0.1, v, 2)),
    ("bound_report_for", "alpha", False, lambda v: bound_report_for(PROBLEM, v, 3)),
    *(("sufficient_tau_k_step", name, False, norms_call(name))
      for name in ("alpha", "norm_B", "norm_M", "norm_H", *S_INPUTS)),
    ("CaseParameters", "delta0", True, lambda v: CaseParameters(delta0=v)),
    *(("CavityConfig", name, strict, lambda v, name=name: CavityConfig(**{name: v}))
      for name, strict in CAVITY_STRICT.items()),
    *(("parse_spec", name, strict, spec_call(name))
      for name, strict in {**CAVITY_STRICT, **SPEC_STRICT}.items()),
]


def bad_values(strict):
    return [math.nan, math.inf, -math.inf, 0.0 if strict else -1.0, True]


CASES = [pytest.param(entry, call, name, strict, value, id=f"{entry}-{name}-{value!r}")
         for entry, name, strict, call in ENTRIES for value in bad_values(strict)
         if not (entry == "parse_spec" and name in CAVITY_STRICT and value is True)]
# an int beyond the float range, which float() cannot convert
CASES.append(pytest.param("RunConfig", ENTRIES[0][3], "tau", True, 10 ** 400,
                          id="RunConfig-tau-10**400"))


@pytest.mark.parametrize("entry, call, name, strict, value", CASES)
def test_bad_value_raises_a_value_error_naming_the_argument(entry, call, name, strict, value):
    error = SpecValidationError if entry == "parse_spec" else ValueError
    message = f"{name} must be finite and {'>' if strict else '>='} 0, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("call", [pytest.param(call, id=f"{entry}-{name}")
                                  for entry, name, _, call in ENTRIES])
def test_a_value_in_range_passes(call):
    call(0.5)


def test_error_classes_share_the_value_error_base():
    from oneshot.matrixio import MatrixFormatError
    for cls in (SpecParseError, SpecValidationError, MatrixFormatError):
        assert issubclass(cls, ValueError)


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("problem")
    manifest = directory / "cavity.cfg"
    manifest.write_text(format_manifest(small_config()))
    assert main(["generate", "--spec", str(manifest), "--out", str(directory / "out"),
                 "--quiet"]) == 0
    return directory / "out"


@pytest.mark.parametrize("args, name", [
    (("certify", "--tau=nan"), "tau"), (("certify", "--tau=-inf"), "tau"),
    (("certify", "--tau=0"), "tau"), (("certify", "--tau=0.01", "--alpha=-1"), "alpha"),
    (("bounds", "--alpha=-1"), "alpha"), (("bounds", "--alpha=inf", "--k=3"), "alpha"),
    (("bounds", "--delta0=0"), "delta0"), (("bounds", "--delta0=-inf"), "delta0"),
])
def test_problem_commands_exit_2(problem_dir, capsys, args, name):
    assert main([args[0], "--problem", str(problem_dir), *args[1:]]) == 2
    captured = capsys.readouterr()
    assert f"{name} must be finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("key, value", [
    ("taus", "0.0"), ("alphas", "-1.0"), ("tol_step", "-1.0"), ("tol_cost", "inf"),
    ("deltas", "-0.01"), ("mesh_hs", "0.0"), ("noise_level", "-inf"), ("omega", "0.0"),
])
def test_run_exits_2_before_any_output(tmp_path, capsys, key, value):
    spec = tmp_path / "exp.cfg"
    spec.write_text(with_value(MINIMAL, key, value))
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out), "--quiet"]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("delta", "-0.01"), ("mesh_h", "0.0"),
                                        ("data_scale", "nan"), ("sigma0_bar", "-inf")])
def test_generate_exits_2_before_any_output(tmp_path, capsys, key, value):
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", format_manifest(small_config()),
                  flags=re.M)
    manifest = tmp_path / "cavity.cfg"
    manifest.write_text(text)
    out = tmp_path / "out"
    assert main(["generate", "--spec", str(manifest), "--out", str(out), "--quiet"]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists()
