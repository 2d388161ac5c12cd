"""Rigidity certificates: linear maps, map images, iteration probe.

The linear certificate runs on grade blocks; its oracle is dense
`membership` of the row action [V]U on the dense model tuple.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ncdomain import cp_maps, defaults, fock_model, rigidity
from ncdomain.rigidity import (
    LinearMapCandidate,
    _drift,
    _first_violation,
    _witness_differences,
    _grade_block_minima,
    _witness_word,
    cartan_iteration_probe,
    check_linear_biholomorphism,
    map_image_check,
)
from ncdomain.cp_maps import (
    OperatorTuple,
    as_operator_tuple,
    membership,
    sample_nilpotent_member,
)
from ncdomain.defaults import EIGENVALUE_TOL
from ncdomain.fock_model import _series_sum, build_model, model_monomial
from ncdomain.series import (
    FreeSeries,
    PositiveRegularFunction,
    compose,
    evaluate,
    rescale_symbol,
    unit_ball_symbol,
)
from ncdomain.words import DimensionCapError


def test_candidate_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        LinearMapCandidate(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        LinearMapCandidate(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_candidate_rejects_a_non_finite_entry(bad):
    u = np.eye(2)
    u[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        LinearMapCandidate(u)
    with pytest.raises(ValueError, match="non-finite"):
        check_linear_biholomorphism(unit_ball_symbol(2), 1, unit_ball_symbol(2), 1, u, 2)


def apply_row(x, u) -> OperatorTuple:
    """Row action [X]U: component j is sum_i U[i, j] X_i."""
    t = as_operator_tuple(x)
    mat = u.matrix if isinstance(u, LinearMapCandidate) else np.asarray(u, dtype=complex)
    if mat.shape != (t.n, t.n):
        raise ValueError(
            f"row action needs a {t.n} x {t.n} matrix, got {mat.shape}"
        )
    out = []
    for j in range(t.n):
        comp = np.zeros((t.dim, t.dim), dtype=complex)
        for i in range(t.n):
            c = mat[i, j]
            if c != 0:
                comp += c * t.mats[i]
        out.append(comp)
    return OperatorTuple(out)


def test_apply_row_columns():
    x = OperatorTuple([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = apply_row(x, u)
    # component j is sum_i U[i, j] X_i
    assert np.allclose(y.mats[0], x.mats[0] + 3.0 * x.mats[1])
    assert np.allclose(y.mats[1], 2.0 * x.mats[0] + 4.0 * x.mats[1])
    with pytest.raises(ValueError):
        apply_row(x, np.eye(3))


def test_rescaling_gives_certificate():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 1.0})
    c = [2.0, 3.0]
    g = rescale_symbol(f, c)
    cert = check_linear_biholomorphism(f, 1, g, 1, np.diag(c), 4)
    assert cert.forward_member
    assert cert.backward_member
    assert cert.passed


def test_doubling_the_ball_fails_with_eigenvalue_minus_three():
    f = unit_ball_symbol(2)
    cert = check_linear_biholomorphism(f, 1, f, 1, 2.0 * np.eye(2), 4)
    assert not cert.passed
    assert not cert.forward_member
    assert min(cert.forward_eigenvalues) == pytest.approx(-3.0, abs=1e-9)


def test_an_overflowing_image_reads_minus_inf():
    # at U = 1e78 I the grade-3 blocks of the image's defect overflow to
    # inf - inf; the certificate reads them as -inf, with no numpy warning
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0})
    g = PositiveRegularFunction(2, {"1": 1.0, "2": 1.0, "12": 0.5})
    cert = check_linear_biholomorphism(f, 1, g, 1, 1e78 * np.eye(2), 3)
    assert min(cert.forward_eigenvalues) == -np.inf
    assert not cert.forward_member
    assert cert.backward_member


def test_certificate_symmetry_under_inverse():
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5})
    g = rescale_symbol(f, [2.0, 0.5])
    u = np.diag([2.0, 0.5])
    one = check_linear_biholomorphism(f, 1, g, 1, u, 3)
    two = check_linear_biholomorphism(g, 1, f, 1, np.linalg.inv(u), 3)
    assert one.passed == two.passed


def _dense_minima(f, m, g, l, u, N):
    """Defect minima of [V]U on the dense depth-N model of (f, m), in (g, l)."""
    model = build_model(f, m, N)
    v = [model_monomial(model, (i,)) for i in range(1, f.n + 1)]
    return membership(g, l, apply_row(v, u)).min_eigenvalues


@st.composite
def certificate_cases(draw, depths=st.integers(1, 4)):
    """Two symbols over n <= 3 letters (degree <= 3), orders <= 2, complex U."""
    n = draw(st.integers(1, 3))
    coeff = st.integers(1, 96).map(lambda k: k / 97)

    def symbol():
        coeffs = {(i,): draw(coeff) for i in range(1, n + 1)}
        for k in range(2, draw(st.integers(1, 3)) + 1):
            for w in product(range(1, n + 1), repeat=k):
                if draw(st.booleans()):
                    coeffs[w] = draw(coeff)
        return PositiveRegularFunction(n, coeffs)

    f, g = symbol(), symbol()
    entry = st.integers(-4, 4).map(lambda k: k / 4)
    u = np.array([[complex(draw(entry), draw(entry)) for _ in range(n)]
                  for _ in range(n)])
    assume(abs(np.linalg.det(u)) >= 0.1)
    return f, draw(st.integers(1, 2)), g, draw(st.integers(1, 2)), u, draw(depths)


@settings(deadline=None, max_examples=40)
@given(case=certificate_cases())
def test_grade_block_certificate_matches_dense_oracle(case):
    f, m, g, l, u, N = case
    cert = check_linear_biholomorphism(f, m, g, l, u, N)
    cand = LinearMapCandidate(u)
    for got, want in (
        (cert.forward_eigenvalues, _dense_minima(f, m, g, l, cand.matrix, N)),
        (cert.backward_eigenvalues, _dense_minima(g, l, f, m, cand.inverse, N)),
    ):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
    assert cert.forward_member == all(v >= -cert.tol for v in cert.forward_eigenvalues)


@settings(deadline=None, max_examples=30)
@given(case=certificate_cases(depths=st.integers(1, 3)), extra=st.integers(1, 2))
def test_grade_block_minima_do_not_depend_on_depth(case, extra):
    f, m, g, l, u, N = case
    low = _grade_block_minima(f, m, g, l, u, N)
    high = _grade_block_minima(f, m, g, l, u, N + extra)
    assert np.array_equal(low, high[:, : N + 1])


def test_certificate_builds_no_dense_model(monkeypatch):
    calls = []

    def spy(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or fn(*a, **k))

    for module, name in ((rigidity, "membership"), (cp_maps, "membership"),
                         (cp_maps, "_point_state"), (rigidity, "build_model"),
                         (fock_model, "build_model")):
        spy(module, name)
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 1.0, "12": 0.25})
    cert = check_linear_biholomorphism(f, 2, f, 2, np.array([[0.5, 0.5j], [0.0, 1.0]]), 4)
    assert cert.forward_eigenvalues and cert.backward_eigenvalues
    assert calls == []


def test_certificate_allocates_grade_blocks_only():
    # n = 2, N = 8: the top grade block is 256 x 256, the dense model 511 x 511
    f = PositiveRegularFunction(2, {"1": 0.5, "2": 0.75, "12": 0.25, "211": 0.125})
    u = np.array([[0.75, 0.25j], [-0.25, 0.5]])
    dim = 511
    check_linear_biholomorphism(f, 2, f, 2, u, 3)  # warm caches and imports
    tracemalloc.start()
    try:
        check_linear_biholomorphism(f, 2, f, 2, u, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * dim**2


def test_certificate_over_physical_memory_raises(monkeypatch):
    f = unit_ball_symbol(2)
    need = rigidity._TOP_BLOCKS * 16 * 2 ** (2 * 5)
    monkeypatch.setattr(defaults, "physical_memory", lambda: need - 1)
    with pytest.raises(DimensionCapError, match=f"needs {need} bytes"):
        check_linear_biholomorphism(f, 1, f, 1, np.eye(2), 5)
    check_linear_biholomorphism(f, 1, f, 1, np.eye(2), 4)


def test_certificate_requires_matching_generator_count():
    with pytest.raises(ValueError):
        check_linear_biholomorphism(
            unit_ball_symbol(1), 1, unit_ball_symbol(2), 1, np.eye(1), 2
        )


def test_probe_quadratic_map_flags_at_two():
    f = unit_ball_symbol(1)
    result = cartan_iteration_probe(
        [FreeSeries(1, 2, {"1": 1.0, "11": 1.0})], f, 1, p=2
    )
    assert result.status == "violation"
    assert result.first_violation == 2
    assert result.witness_word == (1, 1)


def test_probe_small_perturbation_flags_within_budget():
    f = unit_ball_symbol(1)
    result = cartan_iteration_probe(
        [FreeSeries(1, 2, {"1": 1.0, "11": 1e-3})], f, 1, p=2, n_iter=10_000
    )
    assert result.status == "violation"
    assert result.first_violation is not None
    assert result.first_violation <= 10_001


def test_probe_identity_map_is_consistent():
    f = unit_ball_symbol(2)
    maps = [FreeSeries(2, 2, {"1": 1.0}), FreeSeries(2, 2, {"2": 1.0})]
    result = cartan_iteration_probe(maps, f, 1, p=2, n_iter=50)
    assert result.status == "identity-consistent"
    assert result.first_violation is None


def test_probe_rejects_maps_not_tangent_to_identity():
    f = unit_ball_symbol(1)
    with pytest.raises(ValueError, match="tangent"):
        cartan_iteration_probe([FreeSeries(1, 2, {"1": 2.0})], f, 1, p=2)


@pytest.mark.parametrize("n_iter", [0, -3, 2**53 + 1, 10**400])
def test_probe_rejects_empty_iteration_budget(n_iter):
    f = unit_ball_symbol(1)
    with pytest.raises(ValueError, match="iteration budget"):
        cartan_iteration_probe(
            [FreeSeries(1, 2, {"1": 1.0, "11": 1.0})], f, 1, p=2, n_iter=n_iter
        )


def test_probe_two_generator_witness():
    # quadratic motion shows up in the coupled component as well
    f = unit_ball_symbol(2)
    maps = [
        FreeSeries(2, 2, {"1": 1.0, "21": 0.5}),
        FreeSeries(2, 2, {"2": 1.0}),
    ]
    result = cartan_iteration_probe(maps, f, 1, p=2, n_iter=100)
    assert result.status == "violation"
    assert result.witness_word == (2, 1)


# -- map images ---------------------------------------------------------------


def _former_nilpotent_image_check(maps, f, m, g, l, p, tol=EIGENVALUE_TOL, rng=None):
    """The former `nilpotent_image_check`: (model verdict, sample verdicts).

    The depth-p model at r = 1, then five nilpotent samples of size p + 1,
    with the maps truncated to degree p."""
    maps = tuple(s.truncated(p) for s in maps)
    model = build_model(f, m, p)
    model_verdict = membership(g, l, [_series_sum(s, model).at() for s in maps], tol=tol)
    rng = np.random.default_rng(0) if rng is None else rng
    sample_verdicts = []
    for _ in range(5):
        x = sample_nilpotent_member(f, m, p + 1, rng, tol=tol)
        sample_verdicts.append(membership(g, l, [evaluate(s, x.mats) for s in maps], tol=tol))
    return model_verdict, tuple(sample_verdicts)


def _former_generator_images(f, m, g, l, maps, N, tol=EIGENVALUE_TOL,
                             r_grid=(0.25, 0.5, 0.75, 1.0)):
    """The former `check_generator_images`: the (f, m) verdict at each r.

    The maps, over g's letters, are planned on the depth-N model of (g, l)
    once and refilled at every r; a map of degree above N is refused."""
    if any(s.degree > N for s in maps):
        raise ValueError(f"map degree exceeds model depth N={N}")
    model = build_model(g, l, N)
    plans = [fock_model._series_sum(s, model) for s in maps]
    return tuple(membership(f, m, [plan.at(float(r)) for plan in plans], tol=tol)
                 for r in r_grid)


@st.composite
def map_image_cases(draw):
    """Maps over n_f <= 2 letters into n_g <= 2 components, of degree <= N + 1.

    Orders <= 2, depth N <= 3; the linear parts reach past the unit ball, so
    both verdicts occur."""
    coeff = st.integers(1, 96).map(lambda k: k / 97)

    def symbol(n):
        coeffs = {(i,): draw(coeff) for i in range(1, n + 1)}
        if draw(st.booleans()):
            coeffs[tuple(draw(st.integers(1, n)) for _ in range(2))] = draw(coeff)
        return PositiveRegularFunction(n, coeffs)

    f, g = symbol(draw(st.integers(1, 2))), symbol(draw(st.integers(1, 2)))
    N = draw(st.integers(1, 3))
    degree = draw(st.integers(1, N + 1))
    entry = st.integers(-6, 6).map(lambda k: k / 4)
    maps = []
    for _ in range(g.n):
        coeffs = {}
        for k in range(1, degree + 1):
            for w in product(range(1, f.n + 1), repeat=k):
                if k == 1 or draw(st.booleans()):
                    coeffs[w] = complex(draw(entry), draw(entry)) / k
        maps.append(FreeSeries(f.n, degree, coeffs))
    grid = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]), min_size=1, max_size=3))
    return maps, f, draw(st.integers(1, 2)), g, draw(st.integers(1, 2)), N, tuple(grid)


@settings(deadline=None, max_examples=40)
@given(case=map_image_cases(), seed=st.integers(0, 2**32 - 1))
def test_map_image_check_matches_the_former_checks(case, seed):
    maps, f, m, g, l, N, grid = case
    cut = [s.truncated(N) for s in maps]
    report = map_image_check(maps, f, m, g, l, N, r_grid=grid, rng=np.random.default_rng(seed))
    assert report.r_values == grid
    # the former generator images, with the domains swapped
    assert report.model_verdicts == _former_generator_images(g, l, f, m, cut, N, r_grid=grid)
    at_one = map_image_check(maps, f, m, g, l, N, r_grid=(1.0,),
                             rng=np.random.default_rng(seed))
    model_verdict, sample_verdicts = _former_nilpotent_image_check(
        maps, f, m, g, l, N, rng=np.random.default_rng(seed))
    assert at_one.model_verdicts == (model_verdict,)
    assert at_one.sample_verdicts == sample_verdicts == report.sample_verdicts
    verdicts = report.model_verdicts + report.sample_verdicts
    assert report.passed == all(v.member for v in verdicts)


def test_nilpotent_image_identity_map_passes():
    f = unit_ball_symbol(2)
    maps = [FreeSeries(2, 1, {"1": 1.0}), FreeSeries(2, 1, {"2": 1.0})]
    report = map_image_check(maps, f, 1, f, 1, 3, r_grid=(1.0,), rng=np.random.default_rng(0))
    assert report.passed


def test_nilpotent_image_expansion_fails():
    f = unit_ball_symbol(1)
    maps = [FreeSeries(1, 1, {"1": 2.0})]
    report = map_image_check(maps, f, 1, f, 1, 2, r_grid=(1.0,), rng=np.random.default_rng(0))
    assert not report.passed


def test_generator_images_identity():
    f = unit_ball_symbol(2)
    maps = [FreeSeries(2, 1, {"1": 1.0}), FreeSeries(2, 1, {"2": 1.0})]
    report = map_image_check(maps, f, 1, f, 1, 3, r_grid=(0.5, 1.0))
    assert report.passed


def test_generator_images_detect_escape():
    f = unit_ball_symbol(1)
    maps = [FreeSeries(1, 1, {"1": 3.0})]
    report = map_image_check(maps, f, 1, f, 1, 3, r_grid=(1.0,))
    assert not report.passed


def test_generator_images_plan_each_map_once(monkeypatch):
    plans = []
    real = rigidity._series_sum
    monkeypatch.setattr(rigidity, "_series_sum", lambda *a: plans.append(a) or real(*a))
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "12": 0.25})
    g = unit_ball_symbol(2)
    maps = [FreeSeries(2, 2, {"1": 0.5, "21": 0.25}), FreeSeries(2, 2, {"2": 0.5, "11": -0.25})]
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    report = map_image_check(maps, g, 1, f, 2, 3, r_grid=grid)
    assert len(plans) == len(maps)
    # the verdicts of a fresh evaluation per (map, r), bit for bit
    model = build_model(g, 1, 3)
    for r, verdict in zip(grid, report.model_verdicts):
        want = membership(f, 2, [_series_sum(s, model).at(r) for s in maps])
        assert verdict == want


def test_map_image_truncates_maps_past_the_depth():
    # z + 5 z^3 at depth 2: the cubic term vanishes on every tuple checked
    f = unit_ball_symbol(1)
    high = [FreeSeries(1, 3, {"1": 0.5, "111": 5.0})]
    low = [FreeSeries(1, 1, {"1": 0.5})]
    assert map_image_check(high, f, 1, f, 1, 2) == map_image_check(low, f, 1, f, 1, 2)
    assert map_image_check(high, f, 1, f, 1, 2).passed
    assert not map_image_check(high, f, 1, f, 1, 3).passed


@pytest.mark.parametrize("kwargs, match", [
    ({"N": 0}, "depth must be >= 1"),
    ({"r_grid": ()}, "r_grid must be nonempty"),
    ({"r_grid": (0.5, 1.5)}, r"values in \[0, 1\]"),
    ({"maps": [FreeSeries(1, 1, {"1": 1.0})] * 2}, "needs 1 components"),
    ({"maps": [FreeSeries(2, 1, {"1": 1.0})]}, "over 2 letters, expected 1"),
    ({"maps": [FreeSeries(1, 1, {"": 0.5, "1": 1.0})]}, "zero constant term"),
])
def test_map_image_rejects_bad_input(kwargs, match):
    f = unit_ball_symbol(1)
    args = {"maps": [FreeSeries(1, 1, {"1": 1.0})], "f": f, "m": 1, "g": f, "l": 1, "N": 2}
    with pytest.raises(ValueError, match=match):
        map_image_check(**{**args, **kwargs})


def _loop_drifts(maps, f, m, p, count, tol=1e-9):
    """Witness word and drifts of F^1..F^count by repeated composition.

    The probe's former loop: each iterate is composed from the last and
    evaluated densely on the depth-p model, whose witness column is
    compared with the column of the identity map.
    """
    maps = tuple(s.truncated(p) for s in maps)
    witness, _ = _witness_word(maps, p, tol)
    model = build_model(f, m, p)
    idx0 = model.index.index_of(witness)
    base_cols = [model_monomial(model, (i,)).conj().T[:, idx0] for i in range(1, f.n + 1)]
    current = maps
    drifts = []
    for n in range(1, count + 1):
        drift_sq = 0.0
        for s, base in zip(current, base_cols):
            col = _series_sum(s, model).at().conj().T[:, idx0]
            drift_sq += float(np.sum(np.abs(col - base) ** 2))
        drifts.append(float(np.sqrt(drift_sq)))
        if n < count:
            current = tuple(compose(s, current) for s in maps)
    return witness, np.array(drifts)


def _loop_first_violation(maps, f, m, p, count):
    witness, drifts = _loop_drifts(maps, f, m, p, count)
    bound = 1.0 / f.min_linear_coefficient + 1e-9
    over = np.flatnonzero(drifts > bound)
    return witness, (int(over[0]) + 1 if over.size else None)


def _bench_probe_maps(c, component):
    maps = [FreeSeries(2, 2, {(j,): 1.0}) for j in (1, 2)]
    maps[component - 1] = FreeSeries(2, 2, {(component,): 1.0, (component,) * 2: c})
    return maps


def _mixed_quartic():
    # quadratic terms below the tolerance: the witness is the cubic word 112
    return [
        FreeSeries(2, 4, {"1": 1.0, "12": 5e-10, "211": 3e-3 - 2e-3j, "1221": 0.3}),
        FreeSeries(2, 4, {"2": 1.0, "21": -4e-10j, "112": 0.01, "2222": -0.4}),
    ]


PROBE_CASES = [
    pytest.param([FreeSeries(1, 2, {"1": 1.0, "11": 1.0})], unit_ball_symbol(1), 1, 2,
                 10, 2, id="selftest-quadratic"),
    pytest.param([FreeSeries(1, 2, {"1": 1.0, "11": 1e-3})], unit_ball_symbol(1), 1, 2,
                 1100, 1001, id="selftest-small"),
    pytest.param(_bench_probe_maps(1e-2, 1), unit_ball_symbol(2), 1, 2, 150, 101,
                 id="bench-c1e-2-first"),
    pytest.param(_bench_probe_maps(1e-2, 2), unit_ball_symbol(2), 1, 2, 150, 101,
                 id="bench-c1e-2-second"),
    pytest.param(_mixed_quartic(), PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "12": 0.25}),
                 2, 4, 400, 332, id="mixed-quartic"),
]


@pytest.mark.parametrize("maps, f, m, p, count, want", PROBE_CASES)
def test_closed_form_probe_matches_loop(maps, f, m, p, count, want):
    witness, first = _loop_first_violation(maps, f, m, p, count)
    assert first == want
    result = cartan_iteration_probe(maps, f, m, p, n_iter=count)
    assert result.status == "violation"
    assert result.first_violation == first
    assert result.iterations_run == first
    assert result.witness_word == witness


def _drift_cases():
    rng = np.random.default_rng(44)
    for trial in range(6):
        n, p, m = 1 + trial % 2, 2 + trial % 3, 1 + trial // 3
        f = PositiveRegularFunction(n, {(i,): 0.5 + 0.5 * (i % 2) for i in range(1, n + 1)})
        maps = []
        for i in range(1, n + 1):
            coeffs = {(i,): 1.0}
            for k in rng.integers(2, p + 1, size=3):
                w = tuple(int(x) for x in rng.integers(1, n + 1, size=int(k)))
                coeffs[w] = complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-4, 0)
            maps.append(FreeSeries(n, p, coeffs))
        yield pytest.param(maps, f, m, p, id=f"n{n}-p{p}-m{m}")
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "12": 0.25})
    yield pytest.param(_mixed_quartic(), f, 2, 4, id="mixed-quartic")
    # witness 1111, reached through the sub-tolerance words 11 and 111
    maps = [FreeSeries(1, 4, {"1": 1.0, "11": 4e-10, "111": -3e-10j, "1111": 2e-3})]
    yield pytest.param(maps, unit_ball_symbol(1), 3, 4, id="quartic-witness")


@pytest.mark.parametrize("maps, f, m, p", list(_drift_cases()))
def test_closed_form_drift_matches_loop(maps, f, m, p):
    witness, loop = _loop_drifts(maps, f, m, p, 300)
    assert witness is not None
    diffs = _witness_differences(tuple(s.truncated(p) for s in maps), f, m, witness)
    closed = _drift(diffs, np.arange(1, 301))
    assert np.max(np.abs(closed - loop) / loop) <= 1e-9


def test_probe_composes_only_up_to_the_witness_length(monkeypatch):
    calls = []
    monkeypatch.setattr(rigidity, "compose", lambda *a: calls.append(1) or compose(*a))
    f = PositiveRegularFunction(2, {"1": 1.0, "2": 0.5, "12": 0.25})
    result = cartan_iteration_probe(_mixed_quartic(), f, 2, 4, n_iter=10**6)
    assert result.status == "violation"
    # two components, iterates F^2..F^|x|
    assert len(calls) == 2 * (len(result.witness_word) - 1)


def test_probe_budget_does_not_cost_memory():
    f = unit_ball_symbol(1)
    maps = [FreeSeries(1, 2, {"1": 1.0, "11": 1e-12})]
    result = cartan_iteration_probe(maps, f, 1, p=2, n_iter=10**9, tol=1e-15)
    assert result.status == "inconclusive"
    assert result.first_violation is None
    assert result.iterations_run == 10**9
    assert result.drift == pytest.approx(1e-3, rel=1e-9)


def test_probe_ignores_rounding_in_high_differences():
    # drift is N c exactly; the third and fourth differences are rounding
    # that C(N - 1, j) would otherwise grow past the bound below N = 1e9
    f = unit_ball_symbol(2)
    c = 1.2548770403091668e-09
    maps = [FreeSeries(2, 4, {"1": 1.0, "1111": c, "212": 0.7 * c}),
            FreeSeries(2, 4, {"2": 1.0, "1221": c / 3})]
    result = cartan_iteration_probe(maps, f, 1, p=4, n_iter=10**9)
    diffs = _witness_differences(maps, f, 1, result.witness_word)
    assert not np.any(diffs[2:])
    assert result.status == "violation"
    slope = np.linalg.norm(diffs[1])
    assert result.first_violation == pytest.approx(result.bound / slope, abs=2)


def test_first_violation_matches_a_scan():
    # col(N) = 20 t - t^2 with t = N - 1 is over 99.5 only at its peak N = 11,
    # between two turning points, and under the bound at both ends
    bump = np.array([[0.0], [19.0], [-2.0]], dtype=complex)
    assert _first_violation(bump, 99.5, 25) == 11
    rng = np.random.default_rng(17)
    for _ in range(300):
        k, size = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        diffs = rng.standard_normal((k, size)) + 1j * rng.standard_normal((k, size))
        diffs *= 10.0 ** rng.uniform(-6, 0, size=(k, 1))
        n_iter = int(rng.integers(1, 3000))
        drift = _drift(diffs, np.arange(1, n_iter + 1))
        bound = float(np.quantile(drift, rng.uniform())) * rng.uniform(0.9, 1.1)
        over = np.flatnonzero(drift > bound)
        assert _first_violation(diffs, bound, n_iter) == (
            int(over[0]) + 1 if over.size else None
        )
