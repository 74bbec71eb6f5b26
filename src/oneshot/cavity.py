"""Desk-scale cavity problems for conductivity-contrast identification.

A scattered field u in a cavity Omega with homogeneous Dirichlet boundary
satisfies, for each of several incident fields u0,

    div(sigma0 grad u) + omega^2 u = div(sigma grad u0)   in Omega,
    u = 0                                                 on the boundary,

where the contrast sigma is supported on a few small squares strictly
inside Omega and the background is sigma0 = sigma0_bar + delta * sigma_r
with a small delta and sigma_r <= 1.  Measurements are the conormal
boundary flux sigma0 du/dnu.  Discretizing u with piecewise-linear
elements on a structured triangulation of a square domain (an internal
stand-in for the disk geometry; the inversion schemes are
discretization-agnostic) and sigma with one constant per rectangular
cell, the system A1 u = A2 sigma with A1 = A11 + delta A12 becomes

    u = B u + M sigma,    B = -delta A11^{-1} A12,   M = A11^{-1} A2,

i.e. a LinearInverseProblem with F = 0 whose ||B|| shrinks linearly in
delta.  The incident fields are point-source traces f_i = Y0(omega |x -
y_i|) imposed as Dirichlet data, with the y_i spread along the square
contour at sup-norm radius source_radius (strictly outside the domain).
The several sources share sigma and are stacked block-diagonally into one
problem storing the single-source blocks B and H (n_blocks = n_sources),
so certificates and step bounds apply unchanged; the stacked cost is the
sum of the per-source costs, and the clean data is A sigma_exact (stored
stacked only).  One scipy.sparse assembly routine builds the stiffness
and mass matrices and, applied to the incident fields, each column c of A2
(the stiffness matrix of sigma cell c's triangles).

Lengths in the configuration (mesh size, domain half-width, inclusion
geometry, source radius) are expressed in wavelengths lambda =
2 pi sqrt(sigma0_bar) / omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.special

from .errors import ProblemAssumptionError
from .matrixio import write_matrix
from .problem import LinearInverseProblem, Objective, from_block_columns, positive_int

#: Relative smallest-singular-value threshold for the resonance check.
RESONANCE_TOL = 1e-8


@dataclass(frozen=True)
class CavityConfig:
    """Geometry, physics and data parameters of one generated cavity.

    inclusion_layout entries are (center_x, center_y, edge > 0) squares
    in wavelength units; sigma_subdivision = (sx, sy) splits every inclusion
    into sx * sy piecewise-constant parameter cells (after snapping to
    the mesh grid), so n_sigma = len(inclusion_layout) * sx * sy.
    sigma_exact / sigma_init are scalars or per-inclusion sequences.
    data_scale multiplies the measurement operator (a choice of units for
    the recorded flux), which sets the scale of rho(A*A) and hence of the
    stable descent steps.  With normalize_data the measurement operator is
    instead rescaled so that the stacked parameter-to-data map has
    spectral norm exactly data_scale; this makes experiments with a fixed
    descent step comparable across mesh sizes, whose raw data scale would
    otherwise drift at coarse desk-scale resolutions.
    """

    omega: float = 2.0 * math.pi
    sigma0_bar: float = 1.0
    delta: float = 0.01
    mesh_h: float = 0.2
    domain_radius: float = 2.0
    inclusion_layout: tuple = ((-1.0, -1.0, 0.5), (1.0, -1.0, 0.5), (0.0, 1.0, 0.5))
    sigma_subdivision: tuple = (1, 2)
    n_sources: int = 6
    source_radius: float | None = None
    sigma_exact: object = 10.0
    sigma_init: object = 12.0
    noise_level: float = 0.0
    rng_seed: int = 0
    random_background: bool = True
    boundary_subsample: int = 2
    data_scale: float = 1.0
    normalize_data: bool = False

    def __post_init__(self):
        object.__setattr__(self, "inclusion_layout",
                           tuple(tuple(float(v) for v in inc) for inc in self.inclusion_layout))
        numbers = [(name, getattr(self, name)) for name in (
            "omega", "sigma0_bar", "delta", "mesh_h", "domain_radius", "noise_level",
            "data_scale", "source_radius", "sigma_exact", "sigma_init")]
        for name, value in numbers + [("inclusion_layout", sum(self.inclusion_layout, ()))]:
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("omega", "sigma0_bar", "mesh_h", "domain_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.noise_level < 0:
            raise ValueError("noise_level must be >= 0")
        for name in ("n_sources", "boundary_subsample"):
            positive_int(name, getattr(self, name))
        if not self.data_scale > 0:
            raise ValueError("data_scale must be > 0")
        if not self.effective_source_radius > self.domain_radius:
            raise ValueError("source_radius must be > domain_radius "
                             "(the sources sit strictly outside the domain)")
        sx, sy = (positive_int("sigma_subdivision entries", v) for v in self.sigma_subdivision)
        if not self.inclusion_layout or any(len(inc) != 3 or not inc[2] > 0
                                            for inc in self.inclusion_layout):
            raise ValueError("inclusion_layout must list (center_x, center_y, edge) "
                             "squares with edge > 0")
        object.__setattr__(self, "sigma_subdivision", (sx, sy))

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.sigma0_bar) / self.omega

    @property
    def effective_source_radius(self) -> float:
        return self.source_radius if self.source_radius is not None \
            else self.domain_radius + 0.25

    def per_inclusion(self, value) -> np.ndarray:
        n = len(self.inclusion_layout)
        arr = np.atleast_1d(np.asarray(value, dtype=float))
        if arr.size == 1:
            return np.full(n, float(arr[0]))
        if arr.size != n:
            raise ValueError(f"expected a scalar or {n} per-inclusion values")
        return arr.astype(float)


@dataclass(frozen=True, eq=False)
class MeshSummary:
    cells_per_side: int
    h: float
    n_triangles: int
    n_u_single: int
    n_g_single: int
    n_u: int
    n_sigma: int
    n_g: int


@dataclass(frozen=True, eq=False)
class GeneratedCavity:
    problem: LinearInverseProblem
    exact_sigma: np.ndarray
    init_sigma: np.ndarray
    stacked_clean: np.ndarray
    stacked_noisy: np.ndarray
    mesh_summary: MeshSummary
    config: CavityConfig


# ----------------------------------------------------------------------
# structured P1 triangulation of the square [-R, R]^2
# ----------------------------------------------------------------------

def _build_mesh(R: float, ncell: int):
    n = ncell + 1
    xs = np.linspace(-R, R, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    nid = np.arange(n * n).reshape(n, n)
    lower = np.stack([nid[:-1, :-1], nid[1:, :-1], nid[:-1, 1:]], axis=-1)
    upper = np.stack([nid[1:, :-1], nid[1:, 1:], nid[:-1, 1:]], axis=-1)
    tris = np.empty((ncell, ncell, 2, 3), dtype=int)
    tris[:, :, 0, :] = lower
    tris[:, :, 1, :] = upper
    tris = tris.reshape(-1, 3)  # triangle 2*c and 2*c+1 belong to grid cell c
    interior = nid[1:-1, 1:-1].ravel()
    # boundary walked along the perimeter, counter-clockwise from (-R, -R)
    walk = np.concatenate([nid[:-1, 0], nid[-1, :-1], nid[-1:0:-1, -1].ravel(), nid[0, -1:0:-1]])
    return nodes, tris, interior, walk


def _triangle_geometry(nodes, tris):
    p = nodes[tris]                       # (ntri, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    b = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1],
                  p[:, 0, 1] - p[:, 1, 1]], axis=1)
    c = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0],
                  p[:, 1, 0] - p[:, 0, 0]], axis=1)
    grads = np.stack([b, c], axis=-1) / (2.0 * areas)[:, None, None]  # (ntri, 3, 2)
    return areas, grads


def _assemble(nodes, tris, areas, grads, stiffness_coef=None, mass=False):
    """COO stiffness (optionally coefficient-weighted) or mass matrix of the triangles."""
    n = len(nodes)
    if mass:
        template = (np.ones((3, 3)) + np.eye(3)) / 12.0
        local = areas[:, None, None] * template[None, :, :]
    else:
        local = np.einsum("tad,tbd->tab", grads, grads) * areas[:, None, None]
        if stiffness_coef is not None:
            local = local * stiffness_coef[:, None, None]
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    return scipy.sparse.coo_array((local.ravel(), (rows, cols)), shape=(n, n))


def _sigma_cells(config: CavityConfig, R: float, h: float, ncell: int):
    """Snap inclusions to the grid; the triangle indices of every sigma cell."""
    lam = config.wavelength
    sx, sy = config.sigma_subdivision
    owner = np.full((ncell, ncell), -1)  # inclusion index of every grid cell, -1 if free
    cell_ids = np.arange(ncell * ncell).reshape(ncell, ncell)
    cells = []
    for idx, (cx, cy, edge) in enumerate(config.inclusion_layout):
        edge_cells = max(1, round(edge * lam / h))
        if edge_cells % sx or edge_cells % sy:
            raise ValueError(
                f"inclusion {idx}: snapped edge of {edge_cells} mesh cells is not "
                f"divisible by sigma_subdivision {config.sigma_subdivision}")
        i0 = round((cx * lam + R) / h - edge_cells / 2)
        j0 = round((cy * lam + R) / h - edge_cells / 2)
        if i0 < 1 or j0 < 1 or i0 + edge_cells > ncell - 1 or j0 + edge_cells > ncell - 1:
            raise ProblemAssumptionError(
                f"inclusion {idx} is not strictly inside the domain "
                f"(needs one clear cell layer to the boundary)")
        box = np.s_[i0:i0 + edge_cells, j0:j0 + edge_cells]
        if (owner[box] >= 0).any():
            raise ProblemAssumptionError(f"inclusions {owner[box].max()} and {idx} overlap")
        owner[box] = idx
        px, py = edge_cells // sx, edge_cells // sy
        # sigma cell (a, b) holds its px * py grid cells c row-major, as triangles 2c, 2c + 1
        grid = cell_ids[box].reshape(sx, px, sy, py).transpose(0, 2, 1, 3).reshape(sx * sy, -1)
        cells += list(np.stack([2 * grid, 2 * grid + 1], -1).reshape(sx * sy, -1))
    return cells


def _source_positions(config: CavityConfig):
    """Sources equally spaced along the square contour at sup-norm radius
    effective_source_radius (strictly outside the domain), half-step offset."""
    r = config.effective_source_radius * config.wavelength
    # arc length s from (r, -r), counter-clockwise; each side starts at a corner
    s = ((np.arange(config.n_sources) + 0.5) / config.n_sources) * (8.0 * r)
    side = np.searchsorted([2 * r, 4 * r, 6 * r], s, side="right")
    corners = np.array([(r, -r), (r, r), (-r, r), (-r, -r)])
    directions = np.array([(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)])
    return corners[side] + (s - 2 * r * side)[:, None] * directions[side]


def generate(config: CavityConfig) -> GeneratedCavity:
    """Assemble the stacked multi-source problem plus clean and noisy data.

    Raises ProblemAssumptionError when omega^2 sits too close to a
    discrete resonance of the background operator, when an inclusion is
    not strictly inside the domain, or when rho(B) >= 1.  The resonance
    test compares the smallest and largest singular value of the interior
    block A11_II; that block is exactly symmetric (the assembly adds the
    (i, j) and (j, i) contributions in the same order), so they are the
    extreme |eigenvalues| from one symmetric eigensolve.
    """
    lam = config.wavelength
    R = config.domain_radius * lam
    ncell = max(4, round(2.0 * config.domain_radius / config.mesh_h))
    h = 2.0 * R / ncell
    nodes, tris, interior, boundary = _build_mesh(R, ncell)
    areas, grads = _triangle_geometry(nodes, tris)
    rng, sigma_r = _random_background(config, len(tris))

    K_unit = _assemble(nodes, tris, areas, grads).toarray()
    K_rand = _assemble(nodes, tris, areas, grads, stiffness_coef=sigma_r).toarray()
    mass = _assemble(nodes, tris, areas, grads, mass=True).toarray()
    A11 = config.sigma0_bar * K_unit - config.omega ** 2 * mass
    II = np.ix_(interior, interior)
    IB = np.ix_(interior, boundary)

    A11_II = A11[II]
    # A11_II is exactly symmetric, so its singular values are |eigenvalues|
    sv = np.abs(scipy.linalg.eigvalsh(A11_II))
    if sv.min() <= RESONANCE_TOL * sv.max():
        raise ProblemAssumptionError(
            "omega^2 is numerically resonant for this discretization "
            f"(smallest/largest singular value of A11 = {sv.min():.3e}/{sv.max():.3e})")

    cells = _sigma_cells(config, R, h, ncell)
    n_sigma = len(cells)
    n_sub = config.sigma_subdivision[0] * config.sigma_subdivision[1]
    exact = np.repeat(config.per_inclusion(config.sigma_exact), n_sub)
    init = np.repeat(config.per_inclusion(config.sigma_init), n_sub)

    # single-source operator blocks
    lu = scipy.linalg.lu_factor(A11_II)
    B_single = -config.delta * scipy.linalg.lu_solve(lu, K_rand[II])

    # incident fields u0 (A1 u0 = 0 inside, Y0 traces on the boundary)
    A1 = A11 + config.delta * K_rand
    sources = _source_positions(config)
    f_all = scipy.special.y0(config.omega * np.linalg.norm(
        nodes[boundary, None] - sources[None], axis=-1))
    U0 = np.zeros((len(nodes), len(sources)))
    U0[boundary] = f_all
    lu1 = scipy.linalg.lu_factor(A1[II])
    U0[interior] = scipy.linalg.lu_solve(lu1, -A1[IB] @ f_all)
    # A2[:, i, c] = (stiffness of sigma cell c) u0_i; with the last two axes of its
    # interior rows merged, column i * n_sigma + c is block i of column c of the
    # stacked A2_I, the block-column layout that from_block_columns stacks
    A2 = np.stack([_assemble(nodes, tris[t], areas[t], grads[t]) @ U0 for t in cells], -1)
    n1, m = len(interior), config.n_sources
    A2_I = A2[interior].reshape(n1, m * n_sigma)
    M = from_block_columns(scipy.linalg.lu_solve(lu, A2_I), m)

    sel = boundary[:: config.boundary_subsample]
    H_single = config.data_scale * A1[np.ix_(sel, interior)]
    if config.normalize_data:
        # rescale so that the stacked parameter-to-data map has norm data_scale,
        # using (I - B)^{-1} M = A1_II^{-1} A2_I
        A = from_block_columns(H_single @ scipy.linalg.lu_solve(lu1, A2_I), m)
        H_single *= config.data_scale / np.linalg.norm(A, 2)
    problem = LinearInverseProblem(B=B_single, M=M, H=H_single,
                                   F=np.zeros(m * n1), n_blocks=m)
    g_clean = problem.reduced_operator() @ exact
    g_noisy = _noisy(g_clean, config.noise_level, rng)

    summary = MeshSummary(
        cells_per_side=ncell, h=h, n_triangles=len(tris),
        n_u_single=n1, n_g_single=len(sel),
        n_u=problem.n_u, n_sigma=n_sigma, n_g=problem.n_g)
    return GeneratedCavity(
        problem=problem, exact_sigma=exact, init_sigma=init,
        stacked_clean=g_clean, stacked_noisy=g_noisy,
        mesh_summary=summary, config=config)


def _random_background(config: CavityConfig, n_triangles: int):
    """The random generator of ``generate`` and the background it draws first."""
    rng = np.random.default_rng(config.rng_seed)
    sigma_r = rng.uniform(0.0, 1.0, n_triangles) if config.random_background \
        else np.ones(n_triangles)
    return rng, sigma_r


def _noisy(g_clean, eps, rng):
    return g_clean + rng.uniform(-eps, eps, g_clean.shape) * g_clean


def with_noise_level(cavity: GeneratedCavity, noise_level: float) -> GeneratedCavity:
    """The cavity ``generate`` makes at another noise level, without a rebuild.

    Only the noisy data depend on the noise level, so the result shares
    the problem (with its cached A and k-step operators) and draws only
    the noise, replaying the generator past the background draw; its
    arrays equal those of ``generate`` bit for bit.
    """
    config = replace(cavity.config, noise_level=noise_level)
    rng, _ = _random_background(config, cavity.mesh_summary.n_triangles)
    return replace(cavity, stacked_noisy=_noisy(cavity.stacked_clean, noise_level, rng),
                   config=config)


def multi_source_objective(cavity: GeneratedCavity, alpha: float,
                           use_noisy: bool = False) -> Objective:
    """Objective of the stacked problem: sum of per-source misfits plus
    the shared Tikhonov term."""
    g = cavity.stacked_noisy if use_noisy else cavity.stacked_clean
    return Objective(cavity.problem, g, alpha)


# ----------------------------------------------------------------------
# manifest + container export
# ----------------------------------------------------------------------

_MANIFEST_MAGIC = "oneshot-cavity v1"


def _floats(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


def _bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text.lower() == "true"


def _scalar_or_floats(text):
    values = _floats(text)
    return values[0] if len(values) == 1 else values


def _int_pair(text):
    sx, sy = text.split(",")
    return (int(sx), int(sy))


_FLOAT = (float, repr)
_INT = (int, str)
_BOOL = (_bool, lambda v: str(v).lower())
_PER_INCLUSION = (_scalar_or_floats, lambda v: ",".join(repr(float(x)) for x in np.atleast_1d(v)))

#: (parse, format) of the manifest value of every CavityConfig field, in
#: field order; the order is that of the canonical manifest lines.
_CAVITY_CODECS = {
    "omega": _FLOAT, "sigma0_bar": _FLOAT, "delta": _FLOAT, "mesh_h": _FLOAT,
    "domain_radius": _FLOAT,
    "inclusion_layout": (lambda text: tuple(map(_floats, filter(str.strip, text.split(";")))),
                         lambda layout: ";".join(",".join(map(repr, inc)) for inc in layout)),
    "sigma_subdivision": (_int_pair, lambda sub: ",".join(map(str, sub))),
    "n_sources": _INT,
    "source_radius": (lambda text: float(text) if text else None,
                      lambda r: "" if r is None else repr(r)),
    "sigma_exact": _PER_INCLUSION, "sigma_init": _PER_INCLUSION,
    "noise_level": _FLOAT, "rng_seed": _INT, "random_background": _BOOL,
    "boundary_subsample": _INT, "data_scale": _FLOAT, "normalize_data": _BOOL,
}


def cavity_config_lines(config: CavityConfig) -> list:
    """The canonical ``key = value`` lines describing a configuration."""
    return [f"{key} = {fmt(getattr(config, key))}" for key, (_, fmt) in _CAVITY_CODECS.items()]


def format_manifest(config: CavityConfig, mesh: MeshSummary | None = None) -> str:
    lines = [_MANIFEST_MAGIC]
    if mesh is not None:
        lines += [f"# n_u={mesh.n_u} n_sigma={mesh.n_sigma} n_g={mesh.n_g}",
                  f"# cells_per_side={mesh.cells_per_side} h={mesh.h!r}"]
    lines += cavity_config_lines(config)
    return "\n".join(lines) + "\n"


def parse_cavity_value(key: str, value: str):
    """Parse one manifest / experiment-document cavity entry.

    Raises KeyError for an unknown key and ValueError for a bad value.
    """
    return _CAVITY_CODECS[key][0](value)


def parse_manifest(text: str) -> CavityConfig:
    """Parse a cavity manifest; a bad line raises ValueError naming its key and line."""
    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.split("\n"), start=1)
             if line.strip()]
    if not lines or lines[0][1] != _MANIFEST_MAGIC:
        raise ValueError(f"not a cavity manifest (expected header {_MANIFEST_MAGIC!r})")
    kwargs = {}
    for lineno, line in lines[1:]:
        if line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            kwargs[key] = parse_cavity_value(key, value.strip())
        except KeyError:
            raise ValueError(f"line {lineno}: unknown manifest key {key!r}") from None
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return CavityConfig(**kwargs)


def export_cavity(cavity: GeneratedCavity, directory):
    """Write the container files (blocks B, H; stacked M, F) plus the manifest."""
    import os

    os.makedirs(directory, exist_ok=True)
    problem = cavity.problem
    write_matrix(os.path.join(directory, "B.txt"), problem.B)
    write_matrix(os.path.join(directory, "M.txt"), problem.M)
    write_matrix(os.path.join(directory, "H.txt"), problem.H)
    write_matrix(os.path.join(directory, "F.txt"), problem.F)
    write_matrix(os.path.join(directory, "g_clean.txt"), cavity.stacked_clean)
    write_matrix(os.path.join(directory, "g_noisy.txt"), cavity.stacked_noisy)
    write_matrix(os.path.join(directory, "sigma_exact.txt"), cavity.exact_sigma)
    write_matrix(os.path.join(directory, "sigma_init.txt"), cavity.init_sigma)
    with open(os.path.join(directory, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_manifest(cavity.config, cavity.mesh_summary))


def load_problem(directory):
    """Re-read an exported problem directory.

    Returns (problem, g_clean, g_noisy); the constructor re-verifies the
    contraction and injectivity invariants.  n_blocks = rows(M) / rows(B),
    so a directory holding the kron-expanded B and H loads as n_blocks = 1;
    rows(M) not a multiple of rows(B) is a ProblemAssumptionError.
    """
    import os

    from .matrixio import read_matrix, read_vector

    B = read_matrix(os.path.join(directory, "B.txt"))
    M = read_matrix(os.path.join(directory, "M.txt"))
    problem = LinearInverseProblem(
        B=B, M=M, H=read_matrix(os.path.join(directory, "H.txt")),
        F=read_vector(os.path.join(directory, "F.txt")),
        n_blocks=max(1, M.shape[0] // max(1, B.shape[0])),
    )
    g_clean = read_vector(os.path.join(directory, "g_clean.txt"))
    g_noisy = read_vector(os.path.join(directory, "g_noisy.txt"))
    return problem, g_clean, g_noisy
