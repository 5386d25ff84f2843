"""Steering matrix and factorization-method / MLSM tests: filters, the FM
and MLSM fields against explicit Picard sums and explicit regularized
solves, the equivalence bracketing, and the disk-figure classification
quality."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

from nearscat import cli, sampling
from nearscat.disk import SENSOR_RADIUS
from nearscat.errors import DomainError, NearscatError
from nearscat.geometry import make_grid, make_sensor_array
from nearscat.linalg import hermitian_eig
from nearscat.sampling import (
    SENTINEL_CAP,
    FilterSpec,
    _indicator_block,
    filter_value,
    fm_mlsm_fields,
    make_picard_data,
    picard_weights,
)
from nearscat.specfun import fundamental_solution_many

from conftest import CURVE_WEIGHT
from reference import (
    _centred,
    _domain_blocks_per_map,
    _image,
    cutoff_at_rank,
    fm_mlsm_equivalence_check,
    fundamental_solution,
    grid_indicators_per_map,
    grid_points,
    indicators_per_point,
    sqrt_op_apply,
    symmetry_group_per_map,
)


FM, MLSM = 0, 1  # rows of picard_weights


def field_at(row, picard, phis, f=None, weight=CURVE_WEIGHT):
    """FM or MLSM values of an (eigenvalues, eigenvectors) pair for explicit
    steering columns phis (one per point), through the per-block kernel of
    the grid pipeline; the MLSM filter defaults to cutoff_at_rank, as in
    fm_mlsm_fields."""
    lam, vecs = picard
    weights = picard_weights(lam, weight, cutoff_at_rank(picard) if f is None else f)
    return _indicator_block(vecs.conj().T, weights, phis)[row]


# ---------------------------------------------------------------------------
# steering matrix


def test_steering_matrix_matches_phi():
    sensors = make_sensor_array(64, 2.0)
    zs = np.array([[0.0, 0.0], [0.3, -0.4], [0.2, -0.3], [-1.1, 0.6]])
    phis = fundamental_solution_many(1.0, sensors.points, zs)
    assert phis.shape == (64, 4)
    assert np.allclose(phis[:, 0], phis[0, 0])  # radial symmetry at the origin
    for j, z in enumerate(zs):
        for i in (0, 5, 19, 63):
            assert phis[i, j] == pytest.approx(
                fundamental_solution(1.0, sensors.points[i], z), rel=1e-14
            )


@pytest.mark.parametrize("block", sorted({1, 7, 16, sampling._BLOCK, 1024, 10201}))
def test_blocked_pipeline_matches_single_shot(
    monkeypatch, fig6_picard, disk_sensors64, disk_grid101, block
):
    # the reference is the same pipeline run as one block; the 1,326 points
    # of the fundamental domain are not a multiple of any block here but the
    # last
    lam, vecs = fig6_picard
    weights = picard_weights(lam, CURVE_WEIGHT, cutoff_at_rank(fig6_picard))
    args = (vecs, weights, disk_sensors64, 1.0, disk_grid101)
    size = disk_grid101.nx * disk_grid101.ny
    exact = block in (sampling._BLOCK, size)
    monkeypatch.setattr(sampling, "_BLOCK", size)
    single = sampling.grid_indicators(*args)
    monkeypatch.setattr(sampling, "_BLOCK", block)
    blocked = sampling.grid_indicators(*args)
    if exact:
        # the shipped block size and a single block give byte-identical output
        assert np.array_equal(blocked, single)
    else:
        # other sizes may cut the projection at a different BLAS kernel edge
        # (OpenBLAS zgemm unrolls 4 columns), which rounds differently; the
        # Picard sums amplify that to a few 1e-12
        np.testing.assert_allclose(blocked, single, rtol=1e-11, atol=0.0)


def direct_indicators(vecs, weights, sensors, grid):
    """The spectral kernel on the full steering matrix of every grid point,
    at k = 1: no symmetry, no blocks."""
    phis = fundamental_solution_many(1.0, sensors.points, grid_points(grid))
    return _indicator_block(vecs.conj().T, weights, phis)


def random_system(q, seed):
    """Orthonormal vectors (q, q - 3) and two positive weight rows."""
    rng = np.random.default_rng(seed)
    vecs = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))[0]
    weights = np.stack([rng.uniform(0.5, 2.0, q - 3), np.ones(q - 3)])
    return vecs[:, 3:], weights


def group_of(sensors, grid):
    return [tuple(m) for m in sampling._symmetry_group(sensors, grid)[0].tolist()]


Y_MIRROR = (1, 0, 0, -1)


def test_grid_without_shared_symmetry_is_the_direct_kernel():
    # no mirror map of the square sends this grid onto itself, so the
    # pipeline is the plain blocked loop and equals the one-shot kernel
    sensors = make_sensor_array(32, 1.0)
    grid = make_grid((-0.9, 0.8, -0.9, 0.7), 101, 101)
    assert len(group_of(sensors, grid)) == 1
    vecs, weights = random_system(32, 1)
    values = sampling.grid_indicators(vecs, weights, sensors, 1.0, grid)
    assert np.array_equal(values, direct_indicators(vecs, weights, sensors, grid))


@pytest.mark.parametrize("picard", ["fig6_picard", "fig7_picard"])
def test_figure6_7_grids_match_direct_kernel(request, picard, disk_sensors64, disk_grid101):
    data = request.getfixturevalue(picard)
    lam, vecs = data
    assert len(group_of(disk_sensors64, disk_grid101)) == 8
    weights = picard_weights(lam, CURVE_WEIGHT, cutoff_at_rank(data))
    values = sampling.grid_indicators(vecs, weights, disk_sensors64, 1.0, disk_grid101)
    direct = direct_indicators(vecs, weights, disk_sensors64, disk_grid101)
    np.testing.assert_allclose(values, direct, rtol=1e-10, atol=0.0)


def test_fm_field_takes_the_curve_weight_from_the_sensors(fig6_matrix, fig6_picard,
                                                          disk_sensors64, disk_grid101):
    # fm_mlsm_fields reads the weight 2 pi R / Q off the matrix's sensors;
    # without it, W would be off by that factor, about 0.196
    modes, (w,) = fm_mlsm_fields(fig6_matrix, "nonabsorbing", disk_grid101)
    lam, vecs = fig6_picard
    assert modes == lam.size
    direct = direct_indicators(vecs, picard_weights(lam, CURVE_WEIGHT), disk_sensors64,
                               disk_grid101)
    np.testing.assert_allclose(w, direct[FM], rtol=1e-10, atol=0.0)


PARTIAL_GROUPS = [
    (32, (-0.9, 0.9, -0.9, 0.9), 41, 31, 4),  # nx != ny: no x <-> y
    (33, (-0.9, 0.9, -0.9, 0.9), 41, 41, 2),  # odd Q: only y -> -y
    (34, (-0.9, 0.9, -0.9, 0.9), 41, 41, 4),  # Q/4 not an integer
    (36, (-0.9, 0.9, -0.9, 0.9), 41, 41, 8),  # Q/4 odd
    (32, (-0.9, 0.8, -0.9, 0.9), 41, 41, 2),  # off centre in x
]


@pytest.mark.parametrize("count, bounds, nx, ny, size", PARTIAL_GROUPS)
def test_partial_groups_match_direct_kernel(count, bounds, nx, ny, size):
    sensors = make_sensor_array(count, 1.0)
    grid = make_grid(bounds, nx, ny)
    maps = group_of(sensors, grid)
    assert len(maps) == size and Y_MIRROR in maps
    vecs, weights = random_system(count, count)
    values = sampling.grid_indicators(vecs, weights, sensors, 1.0, grid)
    direct = direct_indicators(vecs, weights, sensors, grid)
    np.testing.assert_allclose(values, direct, rtol=1e-12, atol=0.0)


def subgroups_of_the_square():
    """Every subgroup of the 8 mirror maps, identity first."""
    maps = sampling._MAPS
    for r in range(len(maps)):
        for rest in itertools.combinations(maps[1:], r):
            group = [maps[0], *rest]
            if all(sampling._mul(m, n) in group for m in group for n in group):
                yield group


@pytest.mark.parametrize("block, scan", [(sampling._BLOCK, sampling._SCAN), (7, 40)])
def test_domain_rows_match_the_orbit_key_scan(monkeypatch, block, scan):
    # F read row by row from one bound per row is the set of points that
    # are the lexicographic maximum of their orbit, found by comparing the
    # keys of every map (the earlier scan, tests/reference.py), for each of
    # the 10 subgroups, odd and even sides, and grids that are not square;
    # small blocks and row chunks cut F across rows
    monkeypatch.setattr(sampling, "_BLOCK", block)
    monkeypatch.setattr(sampling, "_SCAN", scan)
    groups = list(subgroups_of_the_square())
    assert len(groups) == 10
    checked = 0
    for nx, ny in [(2, 2), (3, 3), (6, 6), (7, 7), (4, 7), (7, 4), (2, 9), (41, 41), (41, 31)]:
        grid = make_grid((-1.0, 1.0, -1.0, 1.0), nx, ny)
        for group in groups:
            if nx != ny and any(a == 0 for a, _, _, _ in group):
                continue  # x <-> y maps such a grid onto no lattice
            blocks = list(sampling._domain_blocks(grid, np.array(group)))
            assert all(len(b) == block for b in blocks[:-1])
            got = np.concatenate(blocks)
            want = np.concatenate(list(_domain_blocks_per_map(grid, group)))
            assert np.array_equal(got, want), (nx, ny, group)
            checked += 1
    assert checked == 5 * 10 + 4 * 5  # 5 of the 10 groups have no x <-> y map


# The pipeline against the per-map loop it replaced (tests/reference.py):
# the same products and the same rule for points that several maps reach,
# but the loop reduces w.(Re^2 + Im^2) where the pipeline adds w.Re^2 and
# w.Im^2.  Each is a sum of positive terms, so a value moves by a few ulp.
PER_MAP_RTOL = 8 * np.finfo(float).eps


@pytest.mark.parametrize("picard", ["fig6_picard", "fig7_picard"])
def test_full_group_matches_per_map_loop(request, picard, disk_sensors64, disk_grid101):
    # two weight rows: FM and a Tikhonov MLSM
    lam, vecs = request.getfixturevalue(picard)
    assert len(group_of(disk_sensors64, disk_grid101)) == 8
    weights = picard_weights(lam, CURVE_WEIGHT, FilterSpec(kind="tikhonov", eps=1e-4))
    args = (vecs, weights, disk_sensors64, 1.0, disk_grid101)
    np.testing.assert_allclose(sampling.grid_indicators(*args), grid_indicators_per_map(*args),
                               rtol=PER_MAP_RTOL, atol=0.0)


@pytest.mark.parametrize("count, bounds, nx, ny, size", PARTIAL_GROUPS)
def test_partial_groups_match_per_map_loop(count, bounds, nx, ny, size):
    sensors = make_sensor_array(count, 1.0)
    grid = make_grid(bounds, nx, ny)
    assert len(group_of(sensors, grid)) == size
    vecs, weights = random_system(count, count)
    args = (vecs, weights, sensors, 1.0, grid)
    np.testing.assert_allclose(sampling.grid_indicators(*args), grid_indicators_per_map(*args),
                               rtol=PER_MAP_RTOL, atol=0.0)


def test_points_reached_by_several_maps_keep_the_first_maps_value():
    # on a centred 41 x 41 grid both axes and both diagonals are grid lines:
    # their points are fixed by a mirror, so two maps (all eight at the
    # origin) send a point of F to the same image.  The first of them in
    # group order sets it, bit for bit, so every point of F keeps the
    # identity's value.  F has 231 points, one block: the expected values
    # come from the same product, written map by map
    sensors = make_sensor_array(32, 1.0)
    grid = make_grid((-0.9, 0.9, -0.9, 0.9), 41, 41)
    maps, perms = sampling._symmetry_group(sensors, grid)
    assert len(maps) == 8
    vecs, weights = random_system(32, 5)
    values = sampling.grid_indicators(vecs, weights, sensors, 1.0, grid)

    domain = np.concatenate(list(sampling._domain_blocks(grid, maps)))
    assert domain.size == 231 <= sampling._BLOCK
    phis = fundamental_solution_many(1.0, sensors.points, grid_points(grid)[domain])
    stacked = np.concatenate([vecs.conj().T[:, perm] for perm in perms])
    per_map = _indicator_block(stacked, weights, phis, len(maps))
    per_map = per_map.reshape(len(weights), len(maps), -1)
    assert np.array_equal(values[:, domain], per_map[:, 0])
    u, v = _centred(grid, domain)
    want = np.full_like(values, np.nan)
    differ = 0
    for g in reversed(range(len(maps))):  # the first map last
        image = _image(grid, maps[g], u, v)
        differ += np.count_nonzero(~np.isnan(want[:, image]) & (want[:, image] != per_map[:, g]))
        want[:, image] = per_map[:, g]
    assert np.array_equal(values, want)
    assert differ > 0  # the maps' values at a shared point differ, so the rule shows


@pytest.mark.parametrize("n", [201, 1001])
def test_grid_pipeline_memory_stays_flat_as_the_grid_grows(fig6_picard, n):
    # 64 sensors, 35 modes: the traced peak beyond the output is the grid's
    # two axes and the blocks' own memory (about 2.4 MB with a 1.1 MB stacked
    # product), whatever the grid.  Budget: 3 MiB
    sensors = make_sensor_array(64, 2.0)
    lam, vecs = fig6_picard
    weights = picard_weights(lam, CURVE_WEIGHT)
    assert lam.size == 35
    tracemalloc.start()
    try:
        grid = make_grid((-1.8, 1.8, -1.8, 1.8), n, n)
        values = sampling.grid_indicators(vecs, weights, sensors, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - values.nbytes < 3 * 2**20


def test_kernel_at_points_off_any_lattice_matches_the_per_point_oracle():
    # points that are no lattice, such as tests/test_music.py's music_at
    # reads, go through the per-block kernel, not through a grid
    sensors = make_sensor_array(32, 1.0)
    points = np.array([[0.3, 0.0], [0.5, 0.4], [-0.2, 0.1]])
    vecs, weights = random_system(32, 2)
    phis = fundamental_solution_many(1.0, sensors.points, points)
    got = _indicator_block(vecs.conj().T, weights, phis)
    want = indicators_per_point(vecs.conj().T, weights, phis)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def symmetry_cases():
    """(sensors, grid) cases: the imaging presets, odd and even sensor counts
    up to the CLI's cap and the off-centre grids."""
    for preset in ("figure1", "figure2", "figure3", "figure6", "figure7"):
        s = cli.validate_config(cli.PRESETS[preset])
        sensors = s.get("sensors") or make_sensor_array(s["quad_points"], SENSOR_RADIUS)
        yield pytest.param(sensors, s["grid"], id=preset)
    centred = make_grid((-0.9, 0.9, -0.9, 0.9), 41, 41)
    for q in (1, 2, 3, 33, 34, 36, 1024):
        yield pytest.param(make_sensor_array(q, 1.0), centred, id=f"Q={q}")
    for bounds in ((-0.9, 0.8, -0.9, 0.7), (-0.9, 0.8, -0.9, 0.9), (-0.9, 0.9, -0.8, 0.9)):
        yield pytest.param(make_sensor_array(32, 1.0), make_grid(bounds, 41, 41),
                           id=f"off-centre{bounds}")
    yield pytest.param(make_sensor_array(32, 1.0), make_grid((-0.9, 0.9, -0.9, 0.9), 41, 31),
                       id="nx!=ny")


@pytest.mark.parametrize("sensors, grid", symmetry_cases())
def test_symmetry_group_matches_the_per_map_search(sensors, grid):
    # one array test of every sensor map against the per-map search it
    # replaced (tests/reference.py): the same maps, in the same order, with
    # the same permutations
    maps, perms = sampling._symmetry_group(sensors, grid)
    want_maps, want_perms = symmetry_group_per_map(sensors, grid)
    assert maps.tolist() == want_maps.tolist()
    assert perms.shape == want_perms.shape == (len(maps), sensors.count)
    assert np.array_equal(perms, want_perms)


# ---------------------------------------------------------------------------
# filters


def test_tikhonov_value():
    f = FilterSpec(kind="tikhonov", eps=0.5)
    assert filter_value(f, 0.5) == pytest.approx(1.0)  # 1/(2 eps)


def test_cutoff_boundary_on_cut_side():
    f = FilterSpec(kind="cutoff", eps=0.3)
    assert filter_value(f, 0.3) == 0.0
    assert filter_value(f, 0.3 + 1e-12) == pytest.approx(1.0 / 0.3)


def test_landweber_value():
    f = FilterSpec(kind="landweber", eps=1.0, a=0.5)
    assert filter_value(f, 1.0) == pytest.approx(0.5)


def test_filter_axiom_t_f_leq_one():
    lam1_sq = 4.0
    ts = np.geomspace(1e-12, lam1_sq, 400)
    for f in (
        FilterSpec(kind="tikhonov", eps=1e-3),
        FilterSpec(kind="cutoff", eps=1e-3),
        FilterSpec(kind="landweber", eps=0.1, a=0.2 / lam1_sq),
    ):
        assert np.all(ts * filter_value(f, ts) <= 1.0 + 1e-12)


def test_filter_validation():
    with pytest.raises(DomainError):
        FilterSpec(kind="other", eps=1.0)
    with pytest.raises(DomainError):
        FilterSpec(kind="tikhonov", eps=0.0)
    with pytest.raises(DomainError):
        FilterSpec(kind="landweber", eps=1.0)
    with pytest.raises(DomainError):
        filter_value(FilterSpec(kind="tikhonov", eps=1.0), 0.0)
    with pytest.raises(DomainError):
        filter_value(FilterSpec(kind="tikhonov", eps=1.0), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        filter_value(FilterSpec(kind="landweber", eps=1.0, a=1.0), np.array([0.5, 2.0]))


# ---------------------------------------------------------------------------
# Picard data


def diag_data(vals):
    """The (eigenvalues, eigenvectors) pair of diag(vals); its tests take
    the curve weight 1."""
    vals = np.asarray(vals, dtype=float)
    return vals, np.eye(vals.size, dtype=complex)


def test_make_picard_data_clips(fig6_picard):
    lam, _ = fig6_picard
    assert np.all(lam > 0)
    assert np.all(np.diff(lam) <= 0)
    assert lam[-1] > 1e-12 * lam[0] * (1 - 1e-12)


@pytest.mark.parametrize("matrix", [np.zeros((0, 0)), np.zeros((3, 3)), -np.eye(3)],
                         ids=["empty", "zero", "negative"])
def test_make_picard_data_rejects_negative_definite(matrix):
    # no positive eigenvalue, the empty spectrum included
    with pytest.raises(NearscatError, match="no positive eigenvalues"):
        make_picard_data(matrix)


def explicit_nsharp(picard):
    """N_sharp = V diag(lambda) V^H on the retained span."""
    lam, v = picard
    return (v * lam) @ v.conj().T


def explicit_mlsm_solve(picard, phi, f):
    """g_z = V diag(lambda f(lambda^2)) V^H phi, one scalar filter call per mode."""
    lam, v = picard
    fvals = np.array([float(filter_value(f, t)) for t in lam**2])
    return (v * (lam * fvals)) @ (v.conj().T @ phi)


def disk_phis(sensors, zs):
    return fundamental_solution_many(1.0, sensors.points, np.atleast_2d(zs))


def moderate_tikhonov(picard):
    """A filter that keeps g_z well scaled, so ambient-space oracles built
    from g_z stay accurate (the default cutoff keeps modes down to
    1e-12 lambda_1, where such oracles lose ~5 digits)."""
    return FilterSpec(kind="tikhonov", eps=1e-6 * picard[0][0] ** 2)


def test_picard_single_mode_gives_lambda():
    data = diag_data([4.0, 2.0])
    phi = np.array([[1.0], [0.0]], dtype=complex)
    assert field_at(FM, data, phi, weight=1.0)[0] == pytest.approx(4.0)


def test_picard_orthogonal_hits_cap():
    data = np.array([1.0]), np.array([[1.0], [0.0]], dtype=complex)
    phi = np.array([[0.0], [1.0]], dtype=complex)
    assert field_at(FM, data, phi, weight=1.0)[0] == SENTINEL_CAP
    assert field_at(MLSM, data, phi, weight=1.0)[0] == SENTINEL_CAP


def test_fm_field_matches_explicit_picard_sum(fig6_picard, disk_sensors64):
    zs = [[0.3, -0.2], [0.0, 0.0], [1.1, -0.4], [1.5, 0.3]]
    phis = disk_phis(disk_sensors64, zs)
    values = field_at(FM, fig6_picard, phis)
    for j in range(len(zs)):
        picard = sum(
            CURVE_WEIGHT * abs(np.vdot(psi, phis[:, j])) ** 2 / lam
            for lam, psi in zip(fig6_picard[0], fig6_picard[1].T)
        )
        assert values[j] == pytest.approx(1.0 / picard, rel=1e-12)


def test_picard_phase_invariance(fig6_picard, disk_sensors64):
    phis = disk_phis(disk_sensors64, [[0.3, -0.2], [1.2, 0.5]])
    rng = np.random.default_rng(21)
    lam, vecs = fig6_picard
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, lam.size))
    twisted = lam, vecs * phases[None, :]
    for row in (FM, MLSM):
        base = field_at(row, fig6_picard, phis)
        assert field_at(row, twisted, phis) == pytest.approx(base, rel=1e-12)


def test_scaling_covariance(fig6_picard, disk_sensors64):
    phis = disk_phis(disk_sensors64, [0.3, -0.2])
    lam, vecs = fig6_picard
    scaled = 3.0 * lam, vecs
    assert field_at(FM, scaled, phis)[0] == pytest.approx(
        3.0 * field_at(FM, fig6_picard, phis)[0], rel=1e-12
    )


# ---------------------------------------------------------------------------
# MLSM field against explicit regularized solves g_z = V diag(lambda f) V^H phi


def test_mlsm_solve_regularization_consistency():
    data = diag_data([2.0, 1.0, 0.5])
    phi = np.array([0.3, -0.2, 0.1], dtype=complex)
    f = FilterSpec(kind="tikhonov", eps=1e-14)
    g = explicit_mlsm_solve(data, phi, f)
    nsharp_mat = explicit_nsharp(data)
    assert np.linalg.norm(nsharp_mat @ g - phi) <= 1e-6 * np.linalg.norm(phi)
    p = field_at(MLSM, data, phi[:, None], f, weight=1.0)[0]
    assert p == pytest.approx(1.0 / np.vdot(g, nsharp_mat @ g).real, rel=1e-12)


def test_mlsm_solve_single_mode_cutoff():
    data = diag_data([2.0, 1.0])
    phi = np.array([[1.0], [0.0]], dtype=complex)
    f = FilterSpec(kind="cutoff", eps=2.0)  # retains mode 1 only
    assert np.allclose(explicit_mlsm_solve(data, phi[:, 0], f), phi[:, 0] / 2.0)
    # (N_sharp g, g) = 2 * |1/2|^2
    assert field_at(MLSM, data, phi, f, weight=1.0)[0] == pytest.approx(2.0)


def test_half_power_identity_against_sqrt_oracle(fig6_picard, disk_sensors64):
    # 1/P(z) must equal ||N_sharp^{1/2} g_z||^2 computed independently
    zs = [[0.3, -0.2], [0.0, 0.0], [1.1, -0.4], [1.5, 0.3]]
    phis = disk_phis(disk_sensors64, zs)
    f = moderate_tikhonov(fig6_picard)
    values = field_at(MLSM, fig6_picard, phis, f)
    eig = hermitian_eig(explicit_nsharp(fig6_picard))
    for j in range(len(zs)):
        g = explicit_mlsm_solve(fig6_picard, phis[:, j], f)
        oracle = CURVE_WEIGHT * np.linalg.norm(sqrt_op_apply(*eig, g)) ** 2
        assert 1.0 / values[j] == pytest.approx(oracle, rel=1e-10)


def test_mlsm_indicators_zero_vector(fig6_picard):
    zero = np.zeros((64, 1), dtype=complex)
    assert field_at(MLSM, fig6_picard, zero)[0] == SENTINEL_CAP
    assert field_at(FM, fig6_picard, zero)[0] == SENTINEL_CAP


def test_mlsm_indicators_identity(fig6_picard, disk_sensors64):
    zs = [[0.2, 0.1], [-0.6, 0.4], [1.4, -0.7]]
    phis = disk_phis(disk_sensors64, zs)
    f = moderate_tikhonov(fig6_picard)
    values = field_at(MLSM, fig6_picard, phis, f)
    nsharp_mat = explicit_nsharp(fig6_picard)
    for j in range(len(zs)):
        g = explicit_mlsm_solve(fig6_picard, phis[:, j], f)
        quad = CURVE_WEIGHT * np.vdot(g, nsharp_mat @ g).real
        assert values[j] == pytest.approx(1.0 / quad, rel=1e-12)


# ---------------------------------------------------------------------------
# equivalence bracketing


def test_equivalence_closed_form_diagonal():
    data = diag_data([4.0, 3.0, 2.0, 1.0])
    phi = np.full(4, 0.5, dtype=complex)
    report = fm_mlsm_equivalence_check(
        data, 1.0, phi, 4, [10.0 ** (-p) for p in range(1, 13)]
    )
    expect = 0.25 * (1 / 4 + 1 / 3 + 1 / 2 + 1.0)
    assert report.full_sum == pytest.approx(expect, rel=1e-12)
    assert report.values[-1] == pytest.approx(expect, rel=1e-8)
    assert report.ok


def test_equivalence_validation():
    data = diag_data([1.0])
    phi = np.array([1.0], dtype=complex)
    with pytest.raises(DomainError):
        fm_mlsm_equivalence_check(data, 1.0, phi, 1, [1e-2, 1e-1])
    with pytest.raises(DomainError):
        fm_mlsm_equivalence_check(data, 1.0, phi, 2, [1e-1, 1e-2])


def test_equivalence_interior_point_stabilizes(fig6_picard, disk_sensors64):
    z = np.array([[0.3, 0.2]])
    phi = fundamental_solution_many(1.0, disk_sensors64.points, z)[:, 0]
    eps = [10.0 ** (-p) for p in range(1, 9)]
    report = fm_mlsm_equivalence_check(fig6_picard, CURVE_WEIGHT, phi, fig6_picard[0].size, eps)
    change = abs(report.values[-1] - report.values[-2]) / report.values[-2]
    assert change <= 0.01
    # upper bound at every eps
    for v in report.values:
        assert v <= report.full_sum * (1 + 1e-9) + 1e-9


def test_equivalence_exterior_point_grows(fig6_picard, disk_sensors64):
    z = np.array([[1.5, 0.3]])
    phi = fundamental_solution_many(1.0, disk_sensors64.points, z)[:, 0]
    eps = [10.0 ** (-p) for p in range(1, 9)]
    report = fm_mlsm_equivalence_check(fig6_picard, CURVE_WEIGHT, phi, fig6_picard[0].size, eps)
    vals = np.asarray(report.values)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] / vals[0] >= 10.0


def test_cutoff_bracketing_exact(fig6_picard, disk_sensors64):
    # with the spectral cutoff, the half-power norm equals the partial Picard
    # sum over the retained modes exactly
    z = np.array([[1.1, -0.4]])
    phi = fundamental_solution_many(1.0, disk_sensors64.points, z)[:, 0]
    lam, vecs = fig6_picard
    c = vecs.conj().T @ phi
    terms = CURVE_WEIGHT * np.abs(c) ** 2 / lam
    for eps in (1e-2, 1e-5, 1e-8):
        m = int(np.count_nonzero(lam**2 > eps))
        p = field_at(MLSM, fig6_picard, phi[:, None], FilterSpec(kind="cutoff", eps=eps))
        assert 1.0 / p[0] == pytest.approx(np.sum(terms[:m]), rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# field sweeps: figure classification quality


def jaccard_of(field_values, grid):
    r = np.hypot(*grid_points(grid).T)
    inside = r <= 1.0
    thresh = 0.5 * np.median(field_values[inside])
    pred = field_values >= thresh
    return np.sum(pred & inside) / np.sum(pred | inside)


def test_figure6_fm_classification(fig6_fields, disk_grid101):
    values = fig6_fields[FM]
    assert jaccard_of(values, disk_grid101) >= 0.5
    r = np.hypot(*grid_points(disk_grid101).T)
    core = values[r <= 0.8].mean()
    annulus = values[(r >= 1.2) & (r <= 1.8)].mean()
    assert core >= 10 * annulus


def test_figure6_mlsm_classification(fig6_fields, disk_grid101):
    values = fig6_fields[MLSM]
    assert jaccard_of(values, disk_grid101) >= 0.5
    r = np.hypot(*grid_points(disk_grid101).T)
    core = values[r <= 0.8].mean()
    annulus = values[(r >= 1.2) & (r <= 1.8)].mean()
    assert core >= 10 * annulus


def test_figure7_absorbing_classification(fig7_matrix, disk_grid101):
    values = fm_mlsm_fields(fig7_matrix, "absorbing", disk_grid101)[1][FM]
    assert jaccard_of(values, disk_grid101) >= 0.5


def test_figure7_interior_solution_finite(fig7_picard, disk_sensors64):
    phis = disk_phis(disk_sensors64, [0.2, -0.1])
    g = explicit_mlsm_solve(fig7_picard, phis[:, 0], cutoff_at_rank(fig7_picard))
    assert np.all(np.isfinite(g))
    p = field_at(MLSM, fig7_picard, phis)[0]
    assert np.isfinite(p) and 0.0 < p < SENTINEL_CAP


def test_w_p_spearman_equivalence(fig6_fields):
    w = fig6_fields[FM]
    p = fig6_fields[MLSM]
    assert spearmanr(w, p).statistic >= 0.9


# the matrix fixture, regime and preset of each disk figure's Picard pair
DISK_FIGURES = {"fig6_picard": ("fig6_matrix", "nonabsorbing", "figure6"),
                "fig7_picard": ("fig7_matrix", "absorbing", "figure7")}


@pytest.mark.parametrize("picard", ["fig6_picard", "fig7_picard"])
def test_default_filter_mlsm_is_fm(request, tmp_path, picard, disk_grid101):
    # the default filter keeps every mode the clip keeps, so the MLSM weights
    # lambda^3 f(lambda^2)^2 are the FM weights 1/lambda: with `filter: null`
    # a disk run's MLSM field is its FM field, value for value and byte for
    # byte on disk; an explicit cutoff just below lambda_min^2 reduces a
    # second row that agrees with it up to rounding
    data = request.getfixturevalue(picard)
    matrix_fixture, regime, preset = DISK_FIGURES[picard]
    matrix = request.getfixturevalue(matrix_fixture)
    _, rows = fm_mlsm_fields(matrix, regime, disk_grid101)
    w, p = rows[FM], rows[-1]
    assert np.array_equal(p, w)
    weights = picard_weights(data[0], CURVE_WEIGHT, cutoff_at_rank(data))
    assert np.max(np.abs(weights[MLSM] / weights[FM] - 1.0)) <= 1e-14
    p_cut = fm_mlsm_fields(matrix, regime, disk_grid101, cutoff_at_rank(data))[1][MLSM]
    assert np.max(np.abs(p_cut / w - 1.0)) <= 1e-14
    cli.run(preset=preset, out_dir=tmp_path)
    for ext in ("csv", "pgm"):
        assert (tmp_path / f"mlsm.{ext}").read_bytes() == (tmp_path / f"field.{ext}").read_bytes()


def block_system(picard, sensors, points):
    """Conjugated eigenvectors, the (FM, MLSM) weights of a Tikhonov filter
    and the steering columns of the given points, at k = 1."""
    lam, vecs = picard
    weights = picard_weights(lam, CURVE_WEIGHT, FilterSpec(kind="tikhonov", eps=1e-4))
    phis = fundamental_solution_many(1.0, sensors.points, np.asarray(points, dtype=float))
    return vecs.conj().T, weights, phis


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("picard", ["fig6_picard", "fig7_picard"])
def test_indicator_block_matches_per_point_sums(request, picard, rows, disk_sensors64,
                                                disk_grid101):
    data = request.getfixturevalue(picard)
    points = grid_points(disk_grid101)[::37]  # inside, near and outside the disk
    vecs_h, weights, phis = block_system(data, disk_sensors64, points)
    got = _indicator_block(vecs_h, weights[:rows], phis)
    want = indicators_per_point(vecs_h, weights[:rows], phis)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_fm_row_bits_do_not_depend_on_an_mlsm_row(fig6_picard, fig6_matrix, disk_sensors64,
                                                  disk_grid101):
    vecs_h, weights, phis = block_system(fig6_picard, disk_sensors64, grid_points(disk_grid101))
    alone = _indicator_block(vecs_h, weights[:FM + 1], phis)[FM]
    assert np.array_equal(alone, _indicator_block(vecs_h, weights, phis)[FM])
    w_alone = fm_mlsm_fields(fig6_matrix, "nonabsorbing", disk_grid101)[1][FM]
    w_beside = fm_mlsm_fields(fig6_matrix, "nonabsorbing", disk_grid101,
                              FilterSpec(kind="tikhonov", eps=1e-4))[1][FM]
    assert np.array_equal(w_alone, w_beside)


@pytest.mark.parametrize("f", [FilterSpec(kind="cutoff", eps=1e300),
                               FilterSpec(kind="tikhonov", eps=1e300)])
def test_filter_that_cuts_every_mode_is_rejected(fig6_picard, f):
    lam, _ = fig6_picard
    lam1_sq = f"{lam[0] ** 2:g}"
    with pytest.raises(NearscatError, match=f"eps = 1e\\+300 cuts every .*{lam1_sq}"):
        picard_weights(lam, CURVE_WEIGHT, f)
