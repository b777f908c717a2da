"""Quadrature, eigensolver and slope-fit kernels."""

import math

import numpy as np
import pytest

from twoscale.errors import DegenerateWindowError, NonConvergenceError, NotHermitianError
from twoscale.numerics import hermitian_eigen, integrate_adaptive, loglog_slope


def composite_simpson(f, a, b, n=4096):
    """Fixed-grid oracle, independent of the adaptive code path."""
    xs = np.linspace(a, b, n + 1)
    fx = np.asarray(f(xs), dtype=np.complex128)
    h = (b - a) / n
    return h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum())


def nan_above_half(x):
    return np.where(x > 0.5, np.nan, 1.0)


def nan_in_two_gaps(x):
    # first met in the second round, in a left half and in a right half
    gaps = (np.abs(x - 0.15) < 0.002) | (np.abs(x - 0.65) < 0.002)
    return np.where(gaps, np.nan, np.abs(x - 0.37))


def kink(x):
    return np.abs(x - 1.0 / 3.0)


# (f, a, b, tol, max_evals, error, message, integrand calls made)
FAILING = (
    # stalls: [1, 1 + 64 eps] bisects three times down to panels of the
    # bisection floor, and the rounding estimate of each is still above tol
    (np.ones_like, 1.0, 1.0 + 64.0 * np.finfo(float).eps, 1e-40, 400, NonConvergenceError,
     r"quadrature stalled at error 1\.262e-29 > tol 1\.000e-40$", 4),
    # one panel splits per round, until the budget of 100 evaluations is spent
    (kink, 0.0, 1.0, 1e-15, 100, NonConvergenceError,
     r"evaluation budget 100 exhausted at error 9\.545e-03 > tol 1\.000e-15$", 3),
    (nan_above_half, 0.0, 1.0, 1e-10, 400, ValueError,
     r"non-finite integrand value near x=(np\.float64\()?0\.6038924775039493\b", 1),
    (nan_in_two_gaps, 0.0, 1.0, 1e-12, 400, ValueError,
     r"non-finite integrand value near x=(np\.float64\()?0\.1485387121556507\b", 2),
)


class TestIntegrateAdaptive:
    def test_constant(self):
        res = integrate_adaptive(lambda x: np.ones_like(x), 0.0, 2.0, 1e-14)
        assert abs(res.value - 2.0) <= 1e-14
        assert res.error_estimate <= 1e-14
        assert res.evaluations >= 1

    def test_gaussian_against_erf_oracle(self):
        res = integrate_adaptive(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-10)
        exact = math.sqrt(math.pi) * math.erf(8.0)
        assert abs(res.value - exact) <= res.error_estimate <= 1e-10
        oracle = composite_simpson(lambda x: np.exp(-x * x), -8.0, 8.0)
        assert abs(res.value - oracle) <= 1e-9

    def test_odd_integrand(self):
        res = integrate_adaptive(lambda x: x, -1.0, 1.0, 1e-14)
        assert abs(res.value) <= 1e-14

    @pytest.mark.parametrize(
        "f,a,b,exact",
        [
            (np.sin, 0.0, math.pi, 2.0),
            (np.exp, 0.0, 1.0, math.e - 1.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 3.0, math.atan(3.0)),
            (lambda x: np.exp(1j * x), 0.0, 1.0, complex(math.sin(1.0), 1.0 - math.cos(1.0))),
        ],
    )
    def test_error_bound_covers_truth(self, f, a, b, exact):
        res = integrate_adaptive(f, a, b, 1e-12)
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-14)

    def test_linearity_on_random_smooth_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a1, a2 = rng.normal(size=2)
            w1, w2 = rng.uniform(0.5, 3.0, size=2)
            f = lambda x: np.sin(w1 * x)
            g = lambda x: np.exp(-w2 * x * x)
            rf = integrate_adaptive(f, -2.0, 2.0, 1e-11)
            rg = integrate_adaptive(g, -2.0, 2.0, 1e-11)
            combo = lambda x: a1 * f(x) + a2 * g(x)
            rc = integrate_adaptive(combo, -2.0, 2.0, 1e-11)
            budget = 2.0 * (
                rc.error_estimate + abs(a1) * rf.error_estimate + abs(a2) * rg.error_estimate
            )
            assert abs(rc.value - (a1 * rf.value + a2 * rg.value)) <= budget + 1e-14

    def test_breakpoints_resolve_kink(self):
        res = integrate_adaptive(lambda x: np.abs(x), -1.0, 2.0, 1e-13, breakpoints=[0.0])
        assert abs(res.value - 2.5) <= 1e-13

    def test_budget_exhaustion(self):
        with pytest.raises(NonConvergenceError, match="budget"):
            integrate_adaptive(np.sin, 0.0, 1.0, 1e-30, max_evals=300)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 1.0, 0.0, 1e-8)
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 0.0, 1.0, 0.0)

    def test_one_integrand_call_per_round(self):
        calls = []

        def gauss(x):
            calls.append(x.shape)
            return np.exp(-x * x)

        res = integrate_adaptive(gauss, -8.0, 8.0, 1e-12, breakpoints=[-1.0, 1.0])
        assert calls[0] == (45,)  # 15 nodes on each of the 3 initial panels
        # each later round bisects its panels into pairs, all in one flat call
        assert all(len(shape) == 1 and shape[0] % 30 == 0 for shape in calls[1:])
        assert sum(shape[0] for shape in calls) == res.evaluations
        # far fewer calls than panels: one per round, not one per panel
        assert len(calls) <= res.evaluations // 15 // 4

    def test_one_panel_per_round_at_a_kink(self):
        # only the panel holding the kink has an error above its share
        calls = []

        def kink(x):
            calls.append(x.size)
            return np.abs(x - 1.0 / 3.0)

        res = integrate_adaptive(kink, 0.0, 1.0, 1e-13)
        assert abs(res.value - 5.0 / 18.0) <= 1e-13
        assert calls[0] == 15 and set(calls[1:]) == {30}

    def test_abs_integral(self):
        # a Kronrod estimate of the integral of |f|: exact up to rounding once
        # the kink of |sin| is a panel edge
        res = integrate_adaptive(np.sin, 0.0, 2.0 * math.pi, 1e-12, breakpoints=[math.pi])
        assert abs(res.value) <= 1e-12
        assert abs(res.abs_integral - 4.0) <= 1e-12

    @pytest.mark.parametrize(
        "failing", FAILING, ids=("stall", "budget", "non-finite", "non-finite-later")
    )
    def test_failing_integral_raises_its_own_error(self, failing):
        f, a, b, tol, max_evals, error, message, rounds = failing
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        with pytest.raises(error, match=f"^{message}"):
            integrate_adaptive(counted, a, b, tol, max_evals=max_evals)
        assert len(calls) == rounds

    @pytest.mark.parametrize("where", ("at-the-bounds", "beyond-the-bounds"))
    @pytest.mark.parametrize(
        "failing", FAILING, ids=("stall", "budget", "non-finite", "non-finite-later")
    )
    def test_edges_at_or_beyond_the_bounds_change_no_failure(self, failing, where):
        f, a, b, tol, max_evals, error, _, _ = failing
        edges = [a, b] if where == "at-the-bounds" else [a - 1.0, b + 1.0, -math.inf]
        raised = []
        for breakpoints in ((), edges):
            calls = []

            def counted(x):
                calls.append(x.size)
                return f(x)

            with pytest.raises(error) as info:
                integrate_adaptive(
                    counted, a, b, tol, max_evals=max_evals, breakpoints=breakpoints
                )
            raised.append((str(info.value), calls))
        assert raised[0] == raised[1]

    @pytest.mark.parametrize(
        "a,b,message",
        (
            (1.0, 0.0, "must satisfy a < b"),
            (1.0, 1.0, "must satisfy a < b"),
            (math.nan, 1.0, "must satisfy a < b"),
            (0.0, math.nan, "must satisfy a < b"),
            (-math.inf, 0.0, "must be finite"),
            (0.0, math.inf, "must be finite"),
            # finite bounds whose width overflows
            (-1e308, 1e308, "must be finite"),
        ),
    )
    def test_bounds_are_refused_before_any_call(self, a, b, message):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x * x)

        with pytest.raises(ValueError, match=f"^integration bounds {message}"):
            integrate_adaptive(f, a, b, 1e-10)
        assert calls == []

    @pytest.mark.parametrize("tol", (0.0, -1e-8, -math.inf, math.nan))
    def test_tolerance_is_refused_before_any_call(self, tol):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.cos(x)

        with pytest.raises(ValueError, match="^tolerance must be positive$"):
            integrate_adaptive(f, 0.0, 1.0, tol)
        assert calls == []

    @pytest.mark.parametrize(
        "dtype,kind",
        (
            (np.float32, float),
            (np.float64, float),
            (np.complex64, complex),
            (np.complex128, complex),
        ),
        ids=("float32", "float64", "complex64", "complex128"),
    )
    def test_value_type_follows_the_integrand(self, dtype, kind):
        # a real integrand is summed in float64 and a complex one in complex128,
        # so a narrow one gives the bits of its values widened first
        def narrow(x):
            y = np.exp(1j * x) if kind is complex else np.cos(x)
            return y.astype(dtype)

        def wide(x):
            return narrow(x).astype(np.complex128 if kind is complex else np.float64)

        res = integrate_adaptive(narrow, 0.0, 2.0, 1e-6)
        assert type(res.value) is kind
        assert res == integrate_adaptive(wide, 0.0, 2.0, 1e-6)

    @pytest.mark.parametrize(
        "breakpoints",
        (
            [0.9, 0.5, 0.25],
            [0.25, 0.5, 0.5, 0.9, 0.25],
            (0.25, 0.5, 0.9),
            np.array([0.9, 0.25, 0.5]),
            [-2.0, 0.0, 0.25, 0.5, 0.9, 1.0, 3.0],
        ),
        ids=("reversed", "repeated", "tuple", "array", "with-edges-beyond"),
    )
    def test_breakpoints_are_a_set_of_interior_edges(self, breakpoints):
        # only the set of edges strictly inside (a, b) matters, not their
        # order, their repeats or their container
        f = lambda x: np.abs(x - 0.5) + np.abs(x - 0.9) * np.sqrt(np.abs(x - 0.25))
        res = integrate_adaptive(f, 0.0, 1.0, 1e-10, breakpoints=breakpoints)
        assert res == integrate_adaptive(f, 0.0, 1.0, 1e-10, breakpoints=[0.25, 0.5, 0.9])

    def test_breakpoints_within_the_floor_are_dropped(self):
        # 0.5 + 4e-16 and 0.5 + 8e-16 fall within the bisection floor of 0.5
        # and 1 - 1e-16 within that of b: all three are dropped; 0.5 + 2.2e-15
        # is then measured from 0.5, not from them, and kept
        cluster = [0.5, 0.5 + 4e-16, 0.5 + 8e-16, 0.5 + 2.2e-15, 0.9, 1.0 - 1e-16]
        calls = []

        def f(x):
            calls.append(x.size)
            return np.abs(x - 0.5)

        res = integrate_adaptive(f, 0.0, 1.0, 1e-12, breakpoints=cluster)
        assert calls[0] == 4 * 15
        kept = integrate_adaptive(f, 0.0, 1.0, 1e-12, breakpoints=[0.5, 0.5 + 2.2e-15, 0.9])
        assert res == kept

    def test_integrand_that_turns_complex_keeps_its_imaginary_part(self):
        # every node of the first rounds lies right of 0.001, where the root is
        # real; the later rounds reach left of it
        kinds = []

        def root(x):
            y = np.emath.sqrt(x - 0.001)
            kinds.append(np.iscomplexobj(y))
            return y

        res = integrate_adaptive(root, 0.0, 1.0, 1e-9)
        assert not kinds[0] and kinds[-1]
        assert isinstance(res.value, complex)
        assert abs(res.value - (0.999**1.5 + 0.001**1.5 * 1j) * 2.0 / 3.0) <= res.error_estimate

    def test_determinism_bit_identical(self):
        f = lambda x: np.exp(-x * x) * np.cos(3 * x)
        r1 = integrate_adaptive(f, -5.0, 5.0, 1e-11)
        r2 = integrate_adaptive(f, -5.0, 5.0, 1e-11)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate
        assert r1.evaluations == r2.evaluations


class TestHermitianEigen:
    def test_identity(self):
        spectrum = hermitian_eigen(np.eye(3))
        assert np.allclose(spectrum.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)

    def test_two_by_two_closed_form(self):
        spectrum = hermitian_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(spectrum.eigenvalues, [1.0, 3.0], atol=1e-13)

    def test_rank_one(self):
        v = np.array([1.0, -0.5, -1.0, -0.5])
        norm_sq = float(v @ v)  # oracle: 1 + 1/4 + 1 + 1/4
        assert norm_sq == 2.5
        spectrum = hermitian_eigen(np.outer(v, v))
        assert np.allclose(spectrum.eigenvalues[:3], 0.0, atol=1e-13)
        assert abs(spectrum.eigenvalues[3] - norm_sq) <= 1e-13

    @pytest.mark.parametrize("n,complex_valued", [(6, False), (6, True), (17, True), (64, True)])
    def test_against_numpy_oracle(self, n, complex_valued):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        if complex_valued:
            a = a + 1j * rng.normal(size=(n, n))
        h = 0.5 * (a + a.conj().T)
        spectrum = hermitian_eigen(h)
        assert np.max(np.abs(spectrum.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-11
        v = spectrum.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
        recon = v @ np.diag(spectrum.eigenvalues) @ v.conj().T
        assert np.linalg.norm(recon - h) <= 1e-10 * np.linalg.norm(h)

    def test_trace_preservation(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = 0.5 * (a + a.conj().T)
        spectrum = hermitian_eigen(h)
        assert abs(spectrum.eigenvalues.sum() - np.trace(h).real) <= 1e-12 * np.linalg.norm(h)

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = 0.5 * (a + a.conj().T)
        # fixed test rotation in the (0, 3) plane
        u = np.eye(5, dtype=complex)
        c, s = math.cos(0.7), math.sin(0.7)
        u[0, 0] = c
        u[0, 3] = -s
        u[3, 0] = s
        u[3, 3] = c
        before = hermitian_eigen(h).eigenvalues
        after = hermitian_eigen(u.conj().T @ h @ u).eigenvalues
        assert np.max(np.abs(before - after)) <= 1e-10

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigen(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_determinism(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = 0.5 * (a + a.conj().T)
        s1 = hermitian_eigen(h)
        s2 = hermitian_eigen(h)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


class TestLoglogSlope:
    def test_exact_power_law(self):
        fit = loglog_slope([(x, x**-2.0) for x in (2.0, 4.0, 8.0, 16.0)])
        assert abs(fit.slope + 2.0) <= 1e-12
        assert fit.r_squared >= 1.0 - 1e-12
        assert len(fit.window) == 4

    def test_perturbed_power_law(self):
        xs = [2.0 ** (k / 2.0) for k in range(2, 14)]
        fit = loglog_slope([(x, x**-1.0 * (1.0 + 0.01 * math.sin(math.log(x)))) for x in xs])
        assert abs(fit.slope + 1.0) <= 0.02

    def test_exponential_decay_flags_superpolynomial(self):
        xs = [4.0, 8.0, 16.0, 32.0]
        samples = [(x, math.exp(-x)) for x in xs]
        fit = loglog_slope(samples)
        # oracle: numpy least squares on the same logs
        slope_np = np.polyfit(np.log(xs), [math.log(y) for _, y in samples], 1)[0]
        assert abs(fit.slope - slope_np) <= 1e-10
        assert fit.slope <= -4.0

    def test_zero_ordinate_rejected(self):
        with pytest.raises(DegenerateWindowError):
            loglog_slope([(1.0, 1.0), (2.0, 0.0), (4.0, 1.0), (8.0, 1.0)])

    def test_window_shape_errors(self):
        with pytest.raises(ValueError):
            loglog_slope([(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
        with pytest.raises(ValueError):
            loglog_slope([(1.0, 1.0), (1.0, 1.0), (4.0, 1.0), (8.0, 1.0)])

    def test_intercept_recovers_prefactor(self):
        fit = loglog_slope([(x, 5.0 * x**-3.0) for x in (1.0, 2.0, 4.0, 8.0, 16.0)])
        assert abs(fit.intercept - math.log(5.0)) <= 1e-12
