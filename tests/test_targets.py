"""Target density, score, Hessian and data-ingestion tests."""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

import parvikit.targets
from conftest import fd_gradient, random_state, rel_err
from parvikit.core import InvalidArgumentError
from parvikit.dynamics import DynamicsConfig, make_stepper
from parvikit.harness import default_hyperparameters
from parvikit.targets import (
    TRI_LEAF,
    GaussianMixtureTarget,
    GaussianTarget,
    GPData,
    GPHyperparameterTarget,
    GramFactorError,
    ParseError,
    UnsupportedOperationError,
    _cho_inverse,
    _negated_inverse,
    gmm_target,
    gp_target,
    load_two_column_csv,
    sg_target,
    synthetic_gp_data,
)


class TestSgTarget:
    def test_score_at_mode(self):
        t = sg_target(3)
        assert np.array_equal(t.score(np.zeros(3)), np.zeros(3))

    def test_hand_computed_score(self):
        # Sigma = [[1, .8], [.8, 1]], inverse = (1/0.36)[[1, -.8], [-.8, 1]]
        t = sg_target(2)
        s = t.score(np.array([1.0, 0.0]))
        assert s == pytest.approx([-1.0 / 0.36, 0.8 / 0.36], abs=1e-12)

    def test_covariance_entries(self):
        t = sg_target(4)
        assert np.allclose(np.diag(t.cov), 1.0)
        off = t.cov[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.8)

    def test_hessian_is_negative_precision(self):
        t = sg_target(3)
        h = t.hessian_log_density(np.ones(3))
        assert np.allclose(h, -t.precision, atol=1e-12)

    def test_score_matches_finite_differences(self):
        t = sg_target(5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=5)
            assert rel_err(t.score(x), fd_gradient(t.log_density, x)) <= 1e-5

    def test_potential_and_score_consistent(self):
        t = sg_target(3)
        x = np.random.default_rng(1).normal(size=(6, 3))
        pot, neg_score = t.potential_and_score(x)
        assert np.allclose(pot, -t.log_density(x), atol=1e-12)
        assert np.allclose(neg_score, -t.score(x), atol=1e-12)

    def test_bad_dimension(self):
        with pytest.raises(InvalidArgumentError):
            sg_target(0)
        with pytest.raises(InvalidArgumentError):
            sg_target(2).score(np.zeros(3))


class TestGaussianTargetMean:
    def test_translated_target(self):
        c = np.array([3.0, -2.0])
        base = GaussianTarget(np.eye(2))
        shifted = GaussianTarget(np.eye(2), mean=c)
        x = np.random.default_rng(2).normal(size=(5, 2))
        assert np.allclose(shifted.log_density(x + c), base.log_density(x), atol=1e-12)
        assert np.allclose(shifted.score(x + c), base.score(x), atol=1e-12)
        assert shifted.log_density(c) == 0.0


class TestGmmTarget:
    def test_score_at_origin(self):
        # equal exponentials; weights 2/3 vs 1/3 leave a net pull of a/3
        t = gmm_target(4)
        assert np.allclose(t.score(np.zeros(4)), 0.4 * np.ones(4), atol=1e-12)

    def test_score_small_at_heavy_mode(self):
        t = gmm_target(6)
        a = 1.2 * np.ones(6)
        bound = (2.0 / 3.0) * np.linalg.norm(2 * a) * np.exp(-2 * a @ a)
        assert np.linalg.norm(t.score(a)) < max(bound, 1e-3)

    def test_component_weights_and_moments(self):
        t = gmm_target(2)
        assert np.allclose(t.weights, [2.0 / 3.0, 1.0 / 3.0])
        a = 1.2 * np.ones(2)
        assert np.allclose(t.mean, a / 3.0, atol=1e-12)
        assert np.allclose(t.cov, np.eye(2) + (8.0 / 9.0) * np.outer(a, a), atol=1e-12)

    def test_reflection_weight_swap_identity(self):
        offset = 1.2 * np.ones(3)
        heavy_plus = GaussianMixtureTarget(offset, weight_plus=2.0 / 3.0)
        heavy_minus = GaussianMixtureTarget(offset, weight_plus=1.0 / 3.0)
        x = np.random.default_rng(3).normal(size=(8, 3))
        assert np.allclose(heavy_plus.log_density(x), heavy_minus.log_density(-x), atol=1e-12)

    def test_score_matches_finite_differences(self):
        t = gmm_target(3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=3) * 2.0
            assert rel_err(t.score(x), fd_gradient(t.log_density, x)) <= 1e-5

    def test_hessian_matches_finite_differences_of_score(self):
        t = gmm_target(2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=2) * 2.0
            h = t.hessian_log_density(x)
            fd = np.column_stack(
                [fd_gradient(lambda z, p=p: t.score(z)[p], x, eps=1e-4) for p in range(2)]
            )
            assert rel_err(h, 0.5 * (fd + fd.T)) <= 1e-4
            assert np.allclose(h, h.T, atol=1e-8)

    def test_score_and_hessian_consistent(self):
        t = gmm_target(3)
        x = np.random.default_rng(6).normal(size=(7, 3)) * 3.0
        s, h = t.score_and_hessian(x)
        assert np.allclose(s, t.score(x), atol=1e-10)
        assert np.allclose(h, t.hessian_log_density(x), atol=1e-12)

    def test_potential_and_score_consistent(self):
        t = gmm_target(2)
        x = np.random.default_rng(7).normal(size=(6, 2)) * 4.0
        pot, neg_score = t.potential_and_score(x)
        assert np.allclose(pot, -t.log_density(x), atol=1e-10)
        assert np.allclose(neg_score, -t.score(x), atol=1e-10)

    def test_far_tail_is_stable(self):
        t = gmm_target(2)
        x = np.array([1e3, -1e3])
        assert np.isfinite(t.log_density(x))
        assert np.all(np.isfinite(t.score(x)))
        assert np.all(np.isfinite(t.hessian_log_density(x)))


def _dense_gp_reference(t, phi):
    """(log density, score) of a GP target at phi from dense solve, slogdet and inverse."""
    x, y = t.data.x, t.data.y
    d2 = (x[:, None] - x[None, :]) ** 2
    k = np.exp(phi[0]) * np.exp(-np.exp(phi[1]) * d2)
    ky = k + t.JITTER * np.eye(x.size)
    _, logdet = np.linalg.slogdet(ky)
    alpha = np.linalg.solve(ky, y)
    kinv = np.linalg.inv(ky)
    logp = -0.5 * y @ alpha - 0.5 * logdet
    grad = np.array([
        0.5 * alpha @ dk @ alpha - 0.5 * np.trace(kinv @ dk)
        for dk in (k, -np.exp(phi[1]) * d2 * k)
    ])
    if t.prior_mode == "log1p_quadratic":
        q = 1.0 + phi @ phi
        logp -= np.log(q)
        grad -= 2.0 * phi / q
    return logp, grad


def _dpotri_gp_score(t, phi):
    """Score of a GP target at phi with K_y^-1 from LAPACK dpotri on the Cholesky
    factor, in the operation order the target used before `_cho_inverse`."""
    x, y = t.data.x, t.data.y
    d2 = (x[:, None] - x[None, :]) ** 2
    inv_len = np.exp(phi[1])
    k = np.exp(d2 * -inv_len + phi[0])
    ky = k + t.JITTER * np.eye(x.size)
    factor = cho_factor(ky.T, lower=True)
    alpha = cho_solve(factor, y)
    # K_y^-1 in the triangle on and above the diagonal of the C-ordered view
    tri = dpotri(np.triu(factor[0].T).T, lower=1)[0].T
    tr1 = 2.0 * np.vdot(tri, k) - np.diagonal(tri) @ np.diagonal(k)
    dk2 = d2 * k
    tr2 = 2.0 * np.vdot(tri, dk2)
    grad = np.array([0.5 * (alpha @ (k @ alpha) - tr1),
                     -0.5 * inv_len * (alpha @ (dk2 @ alpha) - tr2)])
    if t.prior_mode == "log1p_quadratic":
        grad -= 2.0 * phi / (1.0 + phi @ phi)
    return grad


def _oracle_deviation(source, tmp_path):
    """Largest relative deviation of the score from `_dpotri_gp_score` over 100 phi."""
    data = synthetic_gp_data() if source == "synthetic" else _irregular_csv_data(tmp_path)
    t = gp_target(data)
    rng = np.random.default_rng(5)
    phis = np.column_stack([rng.uniform(-1.0, 1.0, 100), rng.uniform(-11.0, -8.0, 100)])
    return max(rel_err(g, _dpotri_gp_score(t, phi)) for phi, g in zip(phis, t.score(phis)))


def _irregular_csv_data(tmp_path):
    rng = np.random.default_rng(21)
    x = np.sort(rng.uniform(390.0, 720.0, size=90))
    y = np.tanh((x - 600.0) / 40.0) + 0.1 * rng.standard_normal(x.size)
    p = tmp_path / "scan.csv"
    p.write_text("range,logratio\n" + "".join("%.17g,%.17g\n" % (a, b) for a, b in zip(x, y)))
    return load_two_column_csv(p)


class TestGpTarget:
    def test_smoke_at_init_mean(self):
        data = synthetic_gp_data(n=5)
        t = gp_target(data)
        phi = np.array([0.0, -10.0])
        assert np.isfinite(t.log_density(phi))
        assert np.all(np.isfinite(t.score(phi)))

    def test_score_matches_finite_differences(self):
        data = synthetic_gp_data(n=20)
        t = gp_target(data)
        rng = np.random.default_rng(8)
        for _ in range(10):
            phi = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-11.0, -8.0)])
            assert rel_err(t.score(phi), fd_gradient(t.log_density, phi, eps=1e-5)) <= 1e-5

    def test_prior_modes_differ_by_prior_gradient(self):
        data = synthetic_gp_data(n=10)
        with_prior = gp_target(data, prior_mode="log1p_quadratic")
        without = gp_target(data, prior_mode="none")
        phi = np.array([0.3, -9.0])
        expected = -2.0 * phi / (1.0 + phi @ phi)
        assert np.allclose(with_prior.score(phi) - without.score(phi), expected, atol=1e-10)

    def test_no_hessian(self):
        t = gp_target(synthetic_gp_data(n=5))
        assert not t.has_hessian
        with pytest.raises(UnsupportedOperationError):
            t.hessian_log_density(np.array([0.0, -10.0]))

    def test_too_few_observations(self):
        with pytest.raises(InvalidArgumentError):
            gp_target(GPData(x=np.array([1.0]), y=np.array([2.0])))

    def test_bad_gram_is_a_numerical_error_naming_the_row(self):
        t = gp_target(synthetic_gp_data(n=5))
        # exp(800) overflows the amplitude: the Gram matrix is not finite
        with pytest.raises(GramFactorError, match="not finite") as info:
            t.log_density(np.array([[0.0, -10.0], [800.0, 0.0]]))
        assert info.value.row == 1
        # a huge amplitude and lengthscale give a rank-one Gram that swamps the jitter
        with pytest.raises(GramFactorError, match="not positive definite") as info:
            t.score(np.array([[0.0, -10.0], [0.0, -10.0], [160.0, -134.0]]))
        assert info.value.row == 2
        # a point of the wrong dimension stays a usage error
        with pytest.raises(InvalidArgumentError):
            t.log_density(np.zeros(3))

    def test_bad_gram_on_the_fused_path_names_the_row(self):
        t = gp_target(synthetic_gp_data(n=5))
        for bad in ([800.0, 0.0], [0.0, 800.0], [np.nan, -10.0]):
            with pytest.raises(GramFactorError, match="not finite") as info:
                t.potential_and_score(np.array([[0.0, -10.0], bad]))
            assert info.value.row == 1
        with pytest.raises(GramFactorError, match="not positive definite") as info:
            t.potential_and_score(np.array([[0.0, -10.0], [0.0, -10.0], [160.0, -134.0]]))
        assert info.value.row == 2
        with pytest.raises(InvalidArgumentError):
            t.potential_and_score(np.zeros(3))

    @pytest.mark.parametrize("prior_mode", ["log1p_quadratic", "none"])
    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_matches_dense_reference(self, prior_mode, source, tmp_path):
        data = synthetic_gp_data() if source == "synthetic" else _irregular_csv_data(tmp_path)
        t = gp_target(data, prior_mode=prior_mode)
        rng = np.random.default_rng(5)
        phis = np.column_stack([rng.uniform(-1.0, 1.0, 100), rng.uniform(-11.0, -8.0, 100)])
        logp, grad = t.log_density(phis), t.score(phis)
        for phi, lp, g in zip(phis, logp, grad):
            ref_lp, ref_g = _dense_gp_reference(t, phi)
            assert abs(lp - ref_lp) <= 1e-10 * abs(ref_lp)
            assert rel_err(g, ref_g) <= 1e-10
        potential, neg_score = t.potential_and_score(phis)
        assert np.array_equal(potential, -logp)
        assert np.array_equal(neg_score, -grad)
        u, v = t.potential_and_score(phis[3])
        assert u == -t.log_density(phis[3])
        assert np.array_equal(v, -t.score(phis[3]))

    def test_one_factorization_per_point(self, monkeypatch):
        calls = []
        factor = parvikit.targets.cho_factor

        def counting_factor(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(parvikit.targets, "cho_factor", counting_factor)
        t = gp_target(synthetic_gp_data(n=30))
        phis = np.column_stack([np.linspace(-1.0, 1.0, 7), np.linspace(-11.0, -8.0, 7)])
        t.potential_and_score(phis)
        assert len(calls) == 7
        t.log_density(phis)
        assert len(calls) == 14


class TestGpScratch:
    """The two n x n buffers a GP target works in are scratch, not state."""

    PHIS = np.array([[0.2, -9.0], [-0.7, -10.5], [0.9, -8.2]])

    def _output_bits(self, t):
        """The bytes of the potential and score on a batch and at one point, the
        log density on the batch and the score at another point."""
        return [np.asarray(a).tobytes() for a in (
            *t.potential_and_score(self.PHIS), *t.potential_and_score(self.PHIS[1]),
            t.log_density(self.PHIS), t.score(self.PHIS[2]))]

    @pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_reproduce_the_original(self, clone):
        t = gp_target(synthetic_gp_data(n=60))
        expected = self._output_bits(t)  # builds the scratch before the copy
        assert self._output_bits(clone(t)) == expected
        assert self._output_bits(t) == expected

    def test_pickled_gp_stepper_steps_like_the_original(self):
        cfg = DynamicsConfig(**default_hyperparameters("WGAD-CA-BLOB", "gp"))
        stepper = make_stepper("WGAD-CA-BLOB", gp_target(synthetic_gp_data(n=60)), cfg)
        start = random_state(8, 2, seed=3)
        start = start.replace(positions=[0.0, -10.0] + 0.3 * start.positions)
        stepper(start)
        copied = pickle.loads(pickle.dumps(stepper))
        a, b = stepper(start), copied(start)
        for x, y in zip((a.positions, a.velocities, a.weights),
                        (b.positions, b.velocities, b.weights)):
            assert x.tobytes() == y.tobytes()

    def test_results_share_no_memory_with_the_scratch(self):
        t = gp_target(synthetic_gp_data(n=60))
        first = t.potential_and_score(self.PHIS)
        kept = [a.copy() for a in first]
        single = t.potential_and_score(self.PHIS[0])
        logp = t.log_density(self.PHIS)
        for a in (*first, single[1], logp):
            assert not any(np.shares_memory(a, buf) for buf in t._scratch)
        for a, b in zip(first, kept):
            assert a.tobytes() == b.tobytes()


class TestBlockedInverse:
    @pytest.mark.parametrize("n", [2, TRI_LEAF, TRI_LEAF + 1, 2 * TRI_LEAF + 1, 90, 221, 300])
    @pytest.mark.parametrize("phi", [(0.0, -9.5), (1.0, -8.0), (-1.0, -11.0)])
    def test_matches_the_dense_inverse(self, n, phi):
        x = synthetic_gp_data(n=n).x
        ky = np.exp(phi[0] - np.exp(phi[1]) * (x[:, None] - x[None, :]) ** 2)
        ky += GPHyperparameterTarget.JITTER * np.eye(n)
        factor = np.asfortranarray(np.linalg.cholesky(ky))
        w = factor.copy(order="F")
        _negated_inverse(w, 0, n)
        ref_w = np.linalg.inv(factor)
        assert np.abs(w + ref_w).max() <= 1e-12 * np.abs(ref_w).max()
        kinv = _cho_inverse(factor)
        ref = np.tril(np.linalg.inv(ky))
        assert np.abs(kinv - ref).max() <= 1e-12 * np.abs(ref).max()
        # the triangle above the diagonal stays zero, as the trace identity needs
        assert not np.triu(kinv, 1).any()

    @pytest.mark.parametrize("n", [2, TRI_LEAF, TRI_LEAF + 1, 2 * TRI_LEAF + 1, 221])
    def test_takes_a_raw_cho_factor_output(self, n):
        x = synthetic_gp_data(n=n).x
        ky = np.exp(0.3 - np.exp(-9.5) * (x[:, None] - x[None, :]) ** 2)
        ky += GPHyperparameterTarget.JITTER * np.eye(n)
        raw, _ = cho_factor(ky.T.copy(order="F"), lower=True, check_finite=False)
        assert np.triu(raw, 1).any()  # the Gram input is left above the diagonal
        zeroed = np.asfortranarray(np.tril(raw))
        kinv = _cho_inverse(raw)
        assert kinv.tobytes() == _cho_inverse(zeroed).tobytes()
        assert not np.triu(kinv, 1).any()

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_score_matches_the_dpotri_oracle(self, source, tmp_path):
        # Run at one BLAS thread, where both sides are reproducible bit for bit.
        # Threaded OpenBLAS rounds differently from process to process: at two
        # threads the oracle alone moved by up to 2e-12 relative on these points.
        path = os.pathsep.join([os.path.dirname(__file__),
                                os.path.dirname(os.path.dirname(parvikit.__file__))])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONPATH=path)
        script = ("import pathlib, test_targets; print(test_targets._oracle_deviation(%r, "
                  "pathlib.Path(%r)))" % (source, str(tmp_path)))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert float(run.stdout) <= 1e-12


class TestDataIngestion:
    def test_two_row_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n")
        data = load_two_column_csv(p)
        assert np.array_equal(data.x, [1.0, 3.0])
        assert np.array_equal(data.y, [2.0, 4.0])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("range,logratio\n" + "\n".join("%d,%d" % (i, -i) for i in range(221)))
        assert load_two_column_csv(p).n == 221

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_two_column_csv(p)

    def test_bad_cells_name_the_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\nfoo,4\n")
        with pytest.raises(ParseError, match="line 2"):
            load_two_column_csv(p)
        p.write_text("1\n2\n")
        with pytest.raises(ParseError, match="2 columns"):
            load_two_column_csv(p)

    def test_synthetic_data_deterministic(self):
        a = synthetic_gp_data()
        b = synthetic_gp_data()
        assert a.n == 221
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_gpdata_validation(self):
        with pytest.raises(InvalidArgumentError):
            GPData(x=np.array([1.0, 2.0]), y=np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            GPData(x=np.array([1.0, np.nan]), y=np.array([1.0, 2.0]))
