"""2-Wasserstein, moment-error and mode-mass tests."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import parvikit.metrics
from conftest import random_state
from parvikit import cli
from parvikit.core import InvalidArgumentError, ParticleState
from parvikit.harness import ExperimentConfig, run_experiment
from parvikit.metrics import (
    ConvergenceError,
    SizeGuardError,
    WeightedCloud,
    mode_mass,
    moment_errors,
    wasserstein2_exact,
    wasserstein2_sinkhorn,
)


def _cloud(points, masses=None):
    points = np.asarray(points, dtype=float)
    if masses is None:
        return WeightedCloud.uniform(points)
    return WeightedCloud(points=points, masses=np.asarray(masses, dtype=float))


def _dense_w2(a, b):
    """Oracle: the transport LP over all K_a*K_b cells on the direct-difference cost.

    The cost is scaled to a largest entry of 1 for HiGHS, whose tolerances
    are absolute, and the value scaled back.
    """
    cost = ((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=2)
    top = cost.max() or 1.0
    ka, kb = cost.shape
    var_idx = np.arange(ka * kb)
    a_eq = sparse.coo_matrix(
        (np.ones(2 * ka * kb),
         (np.concatenate([var_idx // kb, ka + var_idx % kb]), np.concatenate([var_idx, var_idx]))),
        shape=(ka + kb, ka * kb),
    ).tocsr()[:-1]
    res = linprog(cost.ravel() / top, A_eq=a_eq, b_eq=np.concatenate([a.masses, b.masses])[:-1],
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(np.sqrt(max(res.fun * top, 0.0)))


def _oracle_cases():
    """(label, a, b): the edge cases of the sparse exact solver."""
    rng = np.random.default_rng(11)
    cases = []
    for d in (1, 2, 10):
        cases.append(("nonuniform d=%d" % d,
                      _cloud(rng.normal(size=(20, d)), rng.dirichlet(np.ones(20))),
                      _cloud(rng.normal(size=(30, d)) + 0.5, rng.dirichlet(np.ones(30)))))
    za = rng.dirichlet(np.ones(12))
    za[[0, 5, 11]] = 0.0
    zb = rng.dirichlet(np.ones(15))
    zb[[3, 14]] = 0.0
    pa, pb = rng.normal(size=(12, 2)), rng.normal(size=(15, 2))
    cases.append(("zero mass in a", _cloud(pa, za / za.sum()), _cloud(pb)))
    cases.append(("zero mass in b", _cloud(pa), _cloud(pb, zb / zb.sum())))
    cases.append(("zero mass in both", _cloud(pa, za / za.sum()), _cloud(pb, zb / zb.sum())))
    dup = rng.normal(size=(6, 3))
    cases.append(("duplicated points", _cloud(np.repeat(dup, 3, axis=0)),
                  _cloud(np.concatenate([dup, dup + 0.1]))))
    grid = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    cases.append(("equidistant ties", _cloud(grid), _cloud(grid + 0.5)))
    cases.append(("identical", _cloud(grid), _cloud(grid[::-1])))
    cases.append(("1 x K", _cloud(rng.normal(size=(1, 2))),
                  _cloud(rng.normal(size=(40, 2)), rng.dirichlet(np.ones(40)))))
    cases.append(("K x 1", _cloud(rng.normal(size=(40, 3)), rng.dirichlet(np.ones(40))),
                  _cloud(rng.normal(size=(1, 3)))))
    modes = np.array([[-2.0, 0.0], [2.0, 0.0]])
    for k in range(4):
        xa = rng.normal(size=(64, 2)) + modes[rng.integers(0, 2, 64)]
        xb = rng.normal(size=(512, 2)) * 0.8 + modes[rng.integers(0, 2, 512)]
        wa = rng.dirichlet(np.ones(64)) if k % 2 else None
        cases.append(("64 x 512 #%d" % k, _cloud(xa, wa), _cloud(xb)))
    return cases


def _count_solves(monkeypatch):
    """Wrap parvikit.metrics._solve_lp; the returned list grows by one per solve."""
    solves = []
    real = parvikit.metrics._solve_lp

    def counting_solve(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(parvikit.metrics, "_solve_lp", counting_solve)
    return solves


def _seed(band):
    """A _newton_support result whose band is exactly `band`."""
    return np.where(band, 0.0, 1.0), 0.0


def _assert_matches_oracle(value, a, b, label):
    oracle = _dense_w2(a, b)
    assert abs(value - oracle) <= 1e-10 * max(oracle, 1e-12), (label, value, oracle)


@st.composite
def _random_cloud_pairs(draw):
    """Two clouds of 1-12 atoms in 1-3 dimensions at a scale of 1e-3 to 1e3, with
    Dirichlet masses, some atoms at zero mass and some points duplicated."""
    dim = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    clouds = []
    for _ in range(2):
        k = draw(st.integers(1, 12))
        points = scale * rng.normal(size=(k, dim))
        for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                                  max_size=k // 2)):
            points[i] = points[j]
        masses = rng.dirichlet(np.full(k, draw(st.sampled_from([0.3, 1.0, 5.0]))))
        zero = draw(st.lists(st.booleans(), min_size=k, max_size=k))
        if not all(zero):
            masses[zero] = 0.0
        clouds.append(_cloud(points, masses / masses.sum()))
    return clouds


class TestWeightedCloud:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            WeightedCloud(points=np.zeros((2, 1)), masses=np.array([0.5, 0.6]))
        with pytest.raises(InvalidArgumentError):
            WeightedCloud(points=np.zeros((2, 1)), masses=np.array([1.5, -0.5]))
        with pytest.raises(InvalidArgumentError):
            WeightedCloud(points=np.zeros((2, 1)), masses=np.array([1.0]))

    @pytest.mark.parametrize("points, masses", [
        ([[0.0], [1.0]], [np.nan, 0.5]),
        ([[0.0], [1.0]], [np.inf, 0.5]),
        ([[0.0], [np.nan]], [0.5, 0.5]),
        ([[0.0], [-np.inf]], [0.5, 0.5]),
    ], ids=["nan mass", "infinite mass", "nan point", "infinite point"])
    def test_non_finite_input_rejected(self, points, masses):
        # a NaN mass compares False with both the sign and the sum check
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            WeightedCloud(points=np.array(points), masses=np.array(masses))

    def test_from_state(self):
        state = random_state(4, 2, seed=0, nonuniform=True)
        cloud = WeightedCloud.from_state(state)
        assert np.array_equal(cloud.points, state.positions)
        assert np.array_equal(cloud.masses, state.weights)


class TestExactW2:
    def test_identical_clouds(self):
        cloud = _cloud(np.random.default_rng(0).normal(size=(10, 2)))
        # the LP cost is zero to ~1e-12; the square root amplifies that
        assert wasserstein2_exact(cloud, cloud) ** 2 <= 1e-12

    def test_dirac_pair(self):
        a = _cloud([[0.0, 0.0]])
        b = _cloud([[3.0, 4.0]])
        assert wasserstein2_exact(a, b) == pytest.approx(5.0, abs=1e-9)

    def test_split_mass_example(self):
        # {0: 1} vs {-1: 1/2, +1: 1/2}: cost 1/2*1 + 1/2*1 = 1
        a = _cloud([[0.0]])
        b = _cloud([[-1.0], [1.0]])
        assert wasserstein2_exact(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_quantile_coupling_oracle_1d(self):
        # equal-size uniform 1-D clouds: optimal plan matches sorted order
        rng = np.random.default_rng(1)
        for _ in range(5):
            xa = rng.normal(size=12)
            xb = rng.normal(size=12) + rng.uniform(-2, 2)
            value = wasserstein2_exact(_cloud(xa[:, None]), _cloud(xb[:, None]))
            oracle = np.sqrt(np.mean((np.sort(xa) - np.sort(xb)) ** 2))
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        a = _cloud(rng.normal(size=(8, 3)))
        b = _cloud(rng.normal(size=(8, 3)))
        ab = wasserstein2_exact(a, b)
        assert ab >= 0.0
        assert ab == pytest.approx(wasserstein2_exact(b, a), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b, c = (_cloud(rng.normal(size=(6, 2))) for _ in range(3))
            ab = wasserstein2_exact(a, b)
            bc = wasserstein2_exact(b, c)
            ac = wasserstein2_exact(a, c)
            assert ac <= ab + bc + 1e-9

    def test_size_guard(self):
        big = _cloud(np.zeros((1500, 1)))
        with pytest.raises(SizeGuardError):
            wasserstein2_exact(big, _cloud(np.zeros((1500, 1))))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            wasserstein2_exact(_cloud(np.zeros((2, 1))), _cloud(np.zeros((2, 2))))

    def test_weighted_marginals(self):
        # mass 3/4 must travel from 0 to 1; 1/4 stays: cost = 3/4
        a = _cloud([[0.0]], [1.0])
        b = _cloud([[1.0], [0.0]], [0.75, 0.25])
        assert wasserstein2_exact(a, b) == pytest.approx(np.sqrt(0.75), abs=1e-9)

    def test_plan_marginals_hold_on_a_run_that_used_to_fail_the_check(self):
        # At HiGHS's default primal feasibility (1e-7) one checkpoint's plan missed
        # its marginals by 3.5e-9 and the run raised instead of recording W2.
        cfg = ExperimentConfig(method="WGAD-CA-BLOB", target="gmm:2", particles=64,
                               reference_samples=256, iterations=500, record_every=50, seed=0)
        records, _ = run_experiment(cfg)
        assert len(records) == 11
        assert all(np.isfinite(r.w2) for r in records)


class TestSparseExactW2:
    def test_matches_dense_oracle(self, monkeypatch):
        solves = []
        real = parvikit.metrics._solve_lp

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(parvikit.metrics, "_solve_lp", counting_solve)
        rounds = {}
        for label, a, b in _oracle_cases():
            solves.clear()
            value = wasserstein2_exact(a, b)
            rounds[label] = len(solves)
            oracle = _dense_w2(a, b)
            assert abs(value - oracle) <= 1e-10 * max(oracle, 1e-12), (label, value, oracle)
        # at least one case needed the repair round and still agrees
        assert max(rounds.values()) >= 2, rounds

    def test_warmup_sized_instances_certify_in_one_solve(self, monkeypatch):
        # the restricted LP is degenerate, so HiGHS's dual vertex can leave the
        # gap open on an optimal plan; the duals shifted per plan component close it
        solves = _count_solves(monkeypatch)
        rng = np.random.default_rng(16)
        for k in range(30):
            a = _cloud(rng.normal(size=(16, 2)))
            b = _cloud(rng.normal(size=(16, 2)))
            solves.clear()
            value = wasserstein2_exact(a, b)
            assert len(solves) == 1, k
            _assert_matches_oracle(value, a, b, k)

    def test_repair_loop_from_the_staircase_alone(self, monkeypatch):
        # an empty seed leaves the north-west staircase, so the repair rounds
        # must grow the support to an optimal one
        monkeypatch.setattr(parvikit.metrics, "_newton_support",
                            lambda cost, wa, wb: _seed(np.zeros(cost.shape, dtype=bool)))
        solves = _count_solves(monkeypatch)
        rounds = {}
        for label, a, b in _oracle_cases():
            solves.clear()
            value = wasserstein2_exact(a, b)
            rounds[label] = len(solves)
            _assert_matches_oracle(value, a, b, label)
        assert max(rounds.values()) >= 3, rounds

    def test_first_solve_sees_the_band_alone(self, monkeypatch):
        # the north-west staircase joins the first solve only when the band
        # cannot carry the masses
        real_support, real_lp = parvikit.metrics._newton_support, parvikit.metrics._solve_lp
        bands, costs = [], []

        def recording_support(cost, wa, wb):
            reduced, eps = real_support(cost, wa, wb)
            bands.append((cost, reduced <= 2.0 * eps, wa, wb))
            return reduced, eps

        def recording_lp(c, *args, **kwargs):
            costs.append(c)
            return real_lp(c, *args, **kwargs)

        monkeypatch.setattr(parvikit.metrics, "_newton_support", recording_support)
        monkeypatch.setattr(parvikit.metrics, "_solve_lp", recording_lp)
        for label, a, b in _oracle_cases():
            if not label.startswith("64 x 512"):
                continue
            bands.clear()
            costs.clear()
            wasserstein2_exact(a, b)
            (cost, band, wa, wb), = bands
            if a.masses.min() < a.masses.max():
                # atoms of small Dirichlet mass have no cell within 2 eps, so the
                # precheck adds the staircase before the first solve
                assert not band.any(axis=1).all(), label
                band[parvikit.metrics._north_west_corner(wa, wb)] = True
            assert np.array_equal(costs[0], cost[band]), label

    def test_infeasible_band_falls_back_to_the_staircase(self, monkeypatch):
        # one balanced component, yet rows 0 and 1 reach only column 0, which
        # cannot take their mass: the precheck passes, HiGHS finds the band
        # infeasible, and the staircase joins it for the second solve
        band = np.zeros((3, 3), dtype=bool)
        band[[0, 1, 2, 2, 2], [0, 0, 0, 1, 2]] = True
        monkeypatch.setattr(parvikit.metrics, "_newton_support", lambda cost, wa, wb: _seed(band))
        solves = _count_solves(monkeypatch)
        a = _cloud([[0.0], [1.0], [2.0]], [0.4, 0.4, 0.2])
        b = _cloud([[0.5], [1.5], [2.5]], [0.2, 0.4, 0.4])
        assert parvikit.metrics._may_carry(band, a.masses, b.masses)
        value = wasserstein2_exact(a, b)
        assert len(solves) == 2
        _assert_matches_oracle(value, a, b, "band without a plan")

    def test_infeasible_with_the_staircase_raises(self, monkeypatch):
        real = parvikit.metrics._solve_lp
        calls = []

        def infeasible(*args, **kwargs):
            calls.append(1)
            res = real(*args, **kwargs)
            res.status = 2
            return res

        monkeypatch.setattr(parvikit.metrics, "_solve_lp", infeasible)
        rng = np.random.default_rng(13)
        # the band passes the precheck, so the staircase joins it for the second solve
        with pytest.raises(RuntimeError, match="infeasible on a support holding"):
            wasserstein2_exact(_cloud(rng.normal(size=(8, 2))), _cloud(rng.normal(size=(9, 2))))
        assert len(calls) == 2

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_random_cloud_pairs())
    def test_random_small_instances_match_the_oracle(self, clouds):
        a, b = clouds
        ab = wasserstein2_exact(a, b)
        _assert_matches_oracle(ab, a, b, "random")
        # K_a > K_b seeds the support on the transposed cost
        assert abs(wasserstein2_exact(b, a) - ab) <= 1e-10 * max(ab, 1e-12)

    @pytest.mark.parametrize("offset", [1e3, 1e5])
    def test_clouds_far_from_the_origin(self, offset):
        # the squared-distance expansion cancels at large offsets: uncentred, the
        # cost of spread-1e-3 clouds was 3.6e-6 off at 1e3 and 28% off at 1e5
        rng = np.random.default_rng(12)
        a = _cloud(offset + 1e-3 * rng.normal(size=(32, 2)))
        b = _cloud(offset + 1e-3 * rng.normal(size=(32, 2)))
        oracle = _dense_w2(a, b)
        assert abs(wasserstein2_exact(a, b) - oracle) <= 1e-9 * oracle

    def _zero_duals(self, monkeypatch):
        """A solve whose duals are shifted to 0: every reduced cost is C >= 0, yet
        the c-transform bound sum_j b_j min_i C_ij stays below the optimum."""
        calls = []
        real = parvikit.metrics._solve_lp

        def shifted(*args, **kwargs):
            calls.append(1)
            res = real(*args, **kwargs)
            res.eqlin.marginals = np.zeros_like(res.eqlin.marginals)
            return res

        monkeypatch.setattr(parvikit.metrics, "_solve_lp", shifted)
        return calls

    def test_open_gap_with_no_cell_to_add_raises(self, monkeypatch):
        calls = self._zero_duals(monkeypatch)
        rng = np.random.default_rng(13)
        a = _cloud(rng.normal(size=(8, 2)))
        b = _cloud(rng.normal(size=(9, 2)) + 1.0)
        with pytest.raises(RuntimeError, match="no cell to add"):
            wasserstein2_exact(a, b)
        assert len(calls) == 1

    def test_cli_exits_2_on_a_stalled_gap(self, monkeypatch, tmp_path, capsys):
        self._zero_duals(monkeypatch)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        pa.write_text("0,0\n1,0\n0,1\n")
        pb.write_text("2,2\n3,1\n")
        assert cli.main(["eval-w2", "--a", str(pa), "--b", str(pb)]) == 2
        assert "no cell to add" in capsys.readouterr().err


@pytest.fixture
def linprog_fallback(monkeypatch):
    """Solve every LP through linprog, as when scipy's HiGHS bindings are missing."""
    monkeypatch.setattr(parvikit.metrics, "_highs", None)


@pytest.mark.usefixtures("linprog_fallback")
class TestSparseExactW2OnLinprog(TestSparseExactW2):
    """The sparse solver's tests with every LP a cold linprog solve."""

    # Hypothesis runs a test function for one class only, so the oracle test is
    # wrapped anew here, with the same settings
    test_random_small_instances_match_the_oracle = settings(
        max_examples=150, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.too_slow])(given(_random_cloud_pairs())(
            TestSparseExactW2.test_random_small_instances_match_the_oracle.hypothesis.inner_test))


def _wrong_forest(monkeypatch, potentials, rng):
    """Build every basis from the reduced costs C - u - v of wrong row potentials u
    (zeros, or random on the scale of C) with v their c-transform."""
    real_support, real_forest = parvikit.metrics._newton_support, parvikit.metrics._forest_basis
    costs = []

    def recording_support(cost, wa, wb):
        seed = real_support(cost, wa, wb)
        costs.append(cost)  # after a transposed inner call, so the caller's cost is last
        return seed

    def wrong_forest(shape, rows, cols, weight):
        cost = costs[-1]
        u = np.zeros(shape[0]) if potentials == "zeros" else rng.uniform(0.0, cost.max(), shape[0])
        reduced = cost - u[:, None]
        reduced -= reduced.min(axis=0)
        return real_forest(shape, rows, cols, reduced[rows, cols])

    monkeypatch.setattr(parvikit.metrics, "_newton_support", recording_support)
    monkeypatch.setattr(parvikit.metrics, "_forest_basis", wrong_forest)


class _TimedOut:
    """scipy's HiGHS bindings, except that every model reports a time limit."""

    def __init__(self, core, highs=None):
        self._core, self._highs = core, highs

    def __getattr__(self, name):
        return getattr(self._highs or self._core, name)

    def _Highs(self):
        return _TimedOut(self._core, self._core._Highs())

    def getModelStatus(self):
        return self._core.HighsModelStatus.kTimeLimit


class TestWarmBasis:
    """The live HiGHS model and its spanning-forest start."""

    def test_model_matches_linprog(self, monkeypatch):
        # started cold, the live model runs linprog's HiGHS solve and returns the
        # same value, plan and row duals; from the forest basis it returns the same
        # value, with row duals that are tight and feasible on the cells
        real = parvikit.metrics._solve_lp
        firsts = []

        def recording(c, lp):
            if lp.highs is None:
                firsts.append((c, lp.wa, lp.wb, lp.rows, lp.cols, lp.basis))
            return real(c, lp)

        monkeypatch.setattr(parvikit.metrics, "_solve_lp", recording)
        for label, a, b in _oracle_cases():
            firsts.clear()
            wasserstein2_exact(a, b)
            c, wa, wb, rows, cols, basis = firsts[0]
            # one basic member per kept equality, and HiGHS takes the basis as it is
            assert basis[0].sum() + basis[1].sum() == wa.shape[0] + wb.shape[0] - 1, label
            warm_lp = parvikit.metrics._TransportLP(wa, wb, rows, cols, basis)
            warm_lp.highs = parvikit.metrics._load(c, warm_lp)
            assert warm_lp.highs.getBasis().valid, label
            warm = real(c, warm_lp)
            cold = real(c, parvikit.metrics._TransportLP(wa, wb, rows, cols))
            if label.startswith("64 x 512"):
                assert 4 * warm.nit <= cold.nit, (label, warm.nit, cold.nit)
            with monkeypatch.context() as patch:
                patch.setattr(parvikit.metrics, "_highs", None)
                res = real(c, parvikit.metrics._TransportLP(wa, wb, rows, cols))
            assert res.status == cold.status == warm.status == 0, label
            assert cold.fun == res.fun, label
            assert np.array_equal(cold.x, res.x), label
            assert np.array_equal(cold.eqlin.marginals, res.eqlin.marginals), label
            slack = parvikit.metrics.GAP_RTOL * res.fun + np.spacing(parvikit.metrics.LP_COST_SCALE)
            assert abs(warm.fun - res.fun) <= slack, label
            duals = np.append(warm.eqlin.marginals, 0.0)
            assert abs(duals @ np.concatenate((wa, wb)) - res.fun) <= slack, label
            assert (c - duals[rows] - duals[wa.shape[0] + cols]).min() >= -1e-9, label

    @pytest.mark.parametrize("potentials", ["zeros", "random"])
    def test_a_wrong_basis_changes_no_value(self, monkeypatch, potentials):
        _wrong_forest(monkeypatch, potentials, np.random.default_rng(17))
        rng = np.random.default_rng(18)
        cases = _oracle_cases() + [
            # K_a > K_b: the Newton seed runs on the transposed cost
            ("40 x 15", _cloud(rng.normal(size=(40, 2)), rng.dirichlet(np.ones(40))),
             _cloud(rng.normal(size=(15, 2)) + 0.5, rng.dirichlet(np.ones(15)))),
        ]
        for label, a, b in cases:
            _assert_matches_oracle(wasserstein2_exact(a, b), a, b, label)

    @pytest.mark.parametrize("potentials", ["newton", "zeros", "random"])
    def test_uniform_assignment_certifies_in_one_solve(self, monkeypatch, potentials):
        # a uniform 16 x 16 assignment is as degenerate as a transport LP gets
        if potentials != "newton":
            _wrong_forest(monkeypatch, potentials, np.random.default_rng(19))
        solves = _count_solves(monkeypatch)
        rng = np.random.default_rng(20)
        for k in range(10):
            a = _cloud(rng.normal(size=(16, 2)))
            b = _cloud(rng.normal(size=(16, 2)))
            solves.clear()
            value = wasserstein2_exact(a, b)
            assert len(solves) == 1, k
            _assert_matches_oracle(value, a, b, k)

    @pytest.mark.parametrize("potentials", ["newton", "zeros", "random"])
    def test_two_component_band_takes_a_basic_row(self, monkeypatch, potentials):
        # the band {r2, c0} + {r0, r1, c1, c2} is two balanced components; the one
        # without the dropped last column's equality needs a basic row
        band = np.zeros((3, 3), dtype=bool)
        band[[2, 0, 1, 0], [0, 1, 2, 2]] = True
        monkeypatch.setattr(parvikit.metrics, "_newton_support", lambda cost, wa, wb: _seed(band))
        if potentials != "newton":
            _wrong_forest(monkeypatch, potentials, np.random.default_rng(21))
        real_forest = parvikit.metrics._forest_basis
        bases = []

        def recording_forest(*args):
            bases.append(real_forest(*args))
            return bases[-1]

        monkeypatch.setattr(parvikit.metrics, "_forest_basis", recording_forest)
        a = _cloud([[0.0], [1.0], [2.0]], [0.4, 0.4, 0.2])
        b = _cloud([[0.5], [1.5], [2.5]], [0.2, 0.4, 0.4])
        _assert_matches_oracle(wasserstein2_exact(a, b), a, b, "two components")
        (cells, rows), = bases
        assert cells.sum() == 4 and np.array_equal(np.nonzero(rows)[0], [2])

    @pytest.mark.parametrize("potentials", ["zeros", "random"])
    def test_infeasible_band_with_a_wrong_basis(self, monkeypatch, potentials):
        band = np.zeros((3, 3), dtype=bool)
        band[[0, 1, 2, 2, 2], [0, 0, 0, 1, 2]] = True
        monkeypatch.setattr(parvikit.metrics, "_newton_support", lambda cost, wa, wb: _seed(band))
        _wrong_forest(monkeypatch, potentials, np.random.default_rng(22))
        solves = _count_solves(monkeypatch)
        a = _cloud([[0.0], [1.0], [2.0]], [0.4, 0.4, 0.2])
        b = _cloud([[0.5], [1.5], [2.5]], [0.2, 0.4, 0.4])
        value = wasserstein2_exact(a, b)
        assert len(solves) == 2
        _assert_matches_oracle(value, a, b, "band without a plan")

    def test_unexpected_status_raises(self, monkeypatch):
        monkeypatch.setattr(parvikit.metrics, "_highs", _TimedOut(parvikit.metrics._highs))
        rng = np.random.default_rng(23)
        with pytest.raises(RuntimeError, match="transport LP failed: Time limit reached"):
            wasserstein2_exact(_cloud(rng.normal(size=(8, 2))), _cloud(rng.normal(size=(9, 2))))

    def test_cli_exits_2_on_an_unexpected_status(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(parvikit.metrics, "_highs", _TimedOut(parvikit.metrics._highs))
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        pa.write_text("0,0\n1,0\n0,1\n")
        pb.write_text("2,2\n3,1\n")
        assert cli.main(["eval-w2", "--a", str(pa), "--b", str(pb)]) == 2
        assert "transport LP failed: Time limit reached" in capsys.readouterr().err


def _count_semi_dual(monkeypatch):
    """Wrap parvikit.metrics._semi_dual; the returned list grows by one per evaluation."""
    calls = []
    real = parvikit.metrics._semi_dual

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(parvikit.metrics, "_semi_dual", counting)
    return calls


class TestNewtonSeed:
    """The path-following eps schedule of the Newton support seed."""

    def test_semi_dual_evaluations_of_a_run(self, monkeypatch):
        # the levels above the last stop near their central path; converging
        # every level took 65 evaluations over this run's 3 checkpoints
        calls = _count_semi_dual(monkeypatch)
        cfg = ExperimentConfig(method="WGAD-CA-BLOB", target="gmm:2", particles=64, iterations=200,
                               record_every=100, reference_samples=512, seed=0)
        records, _ = run_experiment(cfg)
        assert len(records) == 3
        assert len(calls) <= 45, len(calls)

    def test_first_lp_matches_the_converged_schedule(self, monkeypatch):
        # on the uniform-mass 64 x 512 cases the loose levels cost fewer
        # evaluations and move no cell of the first LP
        real_lp = parvikit.metrics._solve_lp
        calls = _count_semi_dual(monkeypatch)
        cells = []

        def recording(c, lp):
            cells.append((lp.rows.copy(), lp.cols.copy()))
            return real_lp(c, lp)

        def first_lp(a, b):
            calls.clear()
            cells.clear()
            wasserstein2_exact(a, b)
            return cells[0], len(calls)

        monkeypatch.setattr(parvikit.metrics, "_solve_lp", recording)
        uniform = [(label, a, b) for label, a, b in _oracle_cases()
                   if label.startswith("64 x 512") and a.masses.min() == a.masses.max()]
        assert len(uniform) == 2
        for label, a, b in uniform:
            loose, loose_calls = first_lp(a, b)
            with monkeypatch.context() as patch:
                patch.setattr(parvikit.metrics, "NEWTON_PATH_TOL", parvikit.metrics.NEWTON_TOL)
                converged, converged_calls = first_lp(a, b)
            assert loose_calls < converged_calls, (label, loose_calls, converged_calls)
            assert np.array_equal(loose[0], converged[0]), label
            assert np.array_equal(loose[1], converged[1]), label


class TestSinkhorn:
    def test_rejects_bad_arguments(self):
        a = _cloud(np.zeros((2, 1)))
        with pytest.raises(InvalidArgumentError):
            wasserstein2_sinkhorn(a, a, eps=0.0)
        with pytest.raises(InvalidArgumentError):
            wasserstein2_sinkhorn(a, a, eps=0.1, max_iter=0)

    def test_dirac_pair_close_to_exact(self):
        a = _cloud([[0.0]])
        b = _cloud([[3.0]])
        value, iterations = wasserstein2_sinkhorn(a, b, eps=0.01)
        assert iterations >= 1
        assert abs(value - 3.0) / 3.0 <= 0.01

    def test_identical_clouds_small_bias(self):
        cloud = _cloud(np.random.default_rng(4).normal(size=(20, 2)))
        value, _ = wasserstein2_sinkhorn(cloud, cloud, eps=0.001, max_iter=100000, tol=1e-6)
        assert value <= 0.05

    def test_bias_monotone_in_eps(self):
        rng = np.random.default_rng(5)
        a = _cloud(rng.normal(size=(25, 2)))
        b = _cloud(rng.normal(size=(25, 2)) + 0.5)
        exact = wasserstein2_exact(a, b)
        gaps = [
            abs(wasserstein2_sinkhorn(a, b, eps=eps, max_iter=100000, tol=1e-6)[0] - exact)
            for eps in (0.5, 0.1, 0.02)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_nonconvergence_carries_violation(self):
        rng = np.random.default_rng(6)
        a = _cloud(rng.normal(size=(10, 2)))
        b = _cloud(rng.normal(size=(10, 2)) + 2.0)
        with pytest.raises(ConvergenceError) as info:
            wasserstein2_sinkhorn(a, b, eps=0.01, max_iter=3)
        assert info.value.marginal_violation > 0.0

    def test_zero_mass_atoms_ignored(self):
        a = _cloud([[0.0], [50.0]], [1.0, 0.0])
        b = _cloud([[3.0]])
        value, _ = wasserstein2_sinkhorn(a, b, eps=0.01)
        assert abs(value - 3.0) / 3.0 <= 0.01


class TestMomentErrors:
    def test_point_mass_at_target_mean(self):
        state = ParticleState(np.zeros((3, 2)), np.zeros((3, 2)), np.full(3, 1 / 3))
        cov = np.array([[2.0, 0.0], [0.0, 1.0]])
        mean_err, cov_err = moment_errors(state, np.zeros(2), cov)
        assert mean_err == 0.0
        assert cov_err == pytest.approx(np.linalg.norm(cov), abs=1e-12)

    def test_symmetric_pair_matches_standard_normal(self):
        state = ParticleState(
            np.array([[-1.0], [1.0]]), np.zeros((2, 1)), np.array([0.5, 0.5])
        )
        mean_err, cov_err = moment_errors(state, np.zeros(1), np.eye(1))
        assert mean_err == 0.0
        assert cov_err <= 1e-12

    def test_concentrated_weights(self):
        state = ParticleState(
            np.array([[2.0], [9.0]]), np.zeros((2, 1)), np.array([1.0, 0.0])
        )
        mean_err, _ = moment_errors(state, np.zeros(1), np.eye(1))
        assert mean_err == pytest.approx(2.0, abs=1e-12)

    def test_shape_mismatch(self):
        state = random_state(3, 2)
        with pytest.raises(InvalidArgumentError):
            moment_errors(state, np.zeros(3), np.eye(2))


class TestModeMass:
    def test_all_at_one_center(self):
        a, b = np.array([1.0, 1.0]), np.array([-1.0, -1.0])
        state = ParticleState(np.tile(a, (4, 1)), np.zeros((4, 2)), np.full(4, 0.25))
        assert mode_mass(state, a, b) == 1.0

    def test_even_split(self):
        a, b = np.array([1.0]), np.array([-1.0])
        state = ParticleState(
            np.array([[1.0], [1.0], [-1.0], [-1.0]]), np.zeros((4, 1)), np.full(4, 0.25)
        )
        assert mode_mass(state, a, b) == 0.5

    def test_weighted_split(self):
        a, b = np.array([1.0]), np.array([-1.0])
        state = ParticleState(
            np.array([[1.0], [-1.0]]), np.zeros((2, 1)), np.array([0.75, 0.25])
        )
        assert mode_mass(state, a, b) == 0.75

    def test_tie_split_evenly(self):
        a, b = np.array([1.0]), np.array([-1.0])
        state = ParticleState(np.array([[0.0]]), np.zeros((1, 1)), np.array([1.0]))
        assert mode_mass(state, a, b) == 0.5
