"""Charge laws: MGF closed forms, tilts, entropies, limits, sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab.disorder import (
    _anchored_log_mgf,
    continuous_disorder,
    discrete_disorder,
    disorder_from_json,
    disorder_to_json,
    gaussian_disorder,
    log_mgf,
    log_xi,
    rademacher_disorder,
    relative_entropy_limit,
    relative_entropy_tilt,
    sample,
    sample_base,
    tilt_transform,
    tilted_mean,
)
from pinlab.errors import InvalidParameterError, PrecisionError
from pinlab.rng import derive_stream

from oracles import mgf_quadrature, relative_entropy_direct


def uniform_continuous_law():
    grid = np.linspace(-2.0, 2.0, 41)
    return continuous_disorder(grid, np.ones_like(grid))


ALL_LAWS = pytest.mark.parametrize(
    "law",
    [
        gaussian_disorder(),
        rademacher_disorder(),
        discrete_disorder([-2.0, 0.5, 3.0], [0.3, 0.5, 0.2]),
        uniform_continuous_law(),
    ],
    ids=["gaussian", "rademacher", "discrete", "continuous"],
)


class TestConstruction:
    def test_discrete_standardized(self):
        law = discrete_disorder([0.0, 1.0, 5.0], [0.2, 0.5, 0.3])
        mean = float(np.dot(law.ps, law.xs))
        var = float(np.dot(law.ps, law.xs**2))
        assert abs(mean) <= 1e-10
        assert abs(var - 1.0) <= 1e-10

    def test_continuous_standardized(self):
        law = uniform_continuous_law()
        mean = float(np.trapezoid(law.xs * law.ps, law.xs))
        var = float(np.trapezoid(law.xs**2 * law.ps, law.xs))
        assert abs(mean) <= 1e-10
        assert abs(var - 1.0) <= 1e-10
        assert relative_entropy_limit(law) == math.inf

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidParameterError):
            discrete_disorder([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(InvalidParameterError):
            discrete_disorder([1.0], [1.0])
        with pytest.raises(InvalidParameterError, match="distinct"):
            discrete_disorder([0.0, 1.0, 1.0], [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("make, table", [
        (discrete_disorder, ([-1, 1], [math.nan, 0.5])),
        (discrete_disorder, ([math.nan, 1], [0.5, 0.5])),
        (discrete_disorder, ([-math.inf, 1], [0.5, 0.5])),
        (discrete_disorder, ([-1, 1], [math.inf, 0.5])),
        (continuous_disorder, ([0, 1, 2], [1, math.nan, 1])),
        (continuous_disorder, ([0, math.nan, 2], [1, 1, 1])),
        (continuous_disorder, ([0, 1, math.inf], [1, 1, 1])),
        (continuous_disorder, ([0, 1, 2], [1, math.inf, 1])),
    ])
    def test_table_rejects_non_finite_entry(self, make, table):
        with pytest.raises(InvalidParameterError, match="finite|sum to 1"):
            make(*table)

    def test_fair_signs_are_a_discrete_table(self):
        law = rademacher_disorder()
        assert law.family == "discrete"
        assert law.xs.tolist() == [-1.0, 1.0]
        assert law.ps.tolist() == [0.5, 0.5]
        assert relative_entropy_limit(law) == math.log(2.0)
        assert disorder_to_json(law) == {
            "family": "discrete", "table": {"xs": [-1.0, 1.0], "ps": [0.5, 0.5]}
        }
        assert disorder_from_json({"family": "rademacher"}).xs.tolist() == [-1.0, 1.0]

    @pytest.mark.parametrize(
        "doc",
        [
            {"family": "gaussian", "sigma": 3},
            {"family": "rademacher", "p": 0.5},
            {"family": "discrete", "table": {"xs": [-1, 1], "ps": [0.5, 0.5]}, "scale": 2},
            {"family": "discrete", "table": {"xs": [-1, 1], "ps": [0.5, 0.5], "weights": [1, 1]}},
            {"family": "continuous", "table": {"grid": [0, 1, 2], "values": [1, 1, 1], "xs": [0]}},
        ],
    )
    def test_unread_field_rejected(self, doc):
        with pytest.raises(InvalidParameterError, match="unknown"):
            disorder_from_json(doc)

    def test_json_roundtrip(self):
        for law in (
            gaussian_disorder(),
            rademacher_disorder(),
            discrete_disorder([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25]),
            uniform_continuous_law(),
        ):
            clone = disorder_from_json(disorder_to_json(law))
            assert clone.family == law.family
            for lam in (-0.7, 0.0, 1.3):
                assert log_mgf(clone, lam) == pytest.approx(log_mgf(law, lam), abs=1e-12)


class TestMgf:
    def test_value_at_zero(self):
        assert math.exp(log_mgf(gaussian_disorder(), 0.0)) == 1.0

    def test_rademacher_cosh(self):
        assert math.exp(log_mgf(rademacher_disorder(), 1.0)) == pytest.approx(
            0.5 * (math.e + 1.0 / math.e), abs=1e-14
        )
        assert math.exp(log_mgf(rademacher_disorder(), 1.0)) == pytest.approx(1.5430806, abs=1e-7)

    def test_gaussian_against_quadrature(self):
        law = gaussian_disorder()
        assert math.exp(log_mgf(law, 2.0)) == pytest.approx(math.e**2, rel=1e-12)
        assert math.exp(log_mgf(law, 2.0)) == pytest.approx(mgf_quadrature(law, 2.0), rel=1e-10)

    def test_continuous_against_quadrature(self):
        law = uniform_continuous_law()
        for lam in (-1.5, 0.3, 2.0):
            assert math.exp(log_mgf(law, lam)) == pytest.approx(mgf_quadrature(law, lam), rel=1e-9)

    @ALL_LAWS
    @settings(max_examples=20)
    @given(
        lam1=st.floats(min_value=-3.0, max_value=3.0),
        lam2=st.floats(min_value=-3.0, max_value=3.0),
        t=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_log_mgf_convex(self, law, lam1, lam2, t):
        mix = t * lam1 + (1.0 - t) * lam2
        lhs = log_mgf(law, mix)
        rhs = t * log_mgf(law, lam1) + (1.0 - t) * log_mgf(law, lam2)
        assert lhs <= rhs + 1e-12


def continuous_moments_mpmath(mp, law, lam):
    """``(log M(lam), tilted mean)`` of a piecewise-linear density from the
    antiderivatives of ``(c0 + c1 x) e^{lam x}`` and ``x (c0 + c1 x) e^{lam x}``
    per segment.  They cancel like ``1/lam^3`` as ``lam -> 0``; 80 digits
    leave more than 40 at ``lam = 1e-9``."""
    with mp.workdps(80):
        lam = mp.mpf(lam)
        m0 = m1 = mp.mpf(0)
        for a, b, pa, pb in zip(law.xs[:-1], law.xs[1:], law.ps[:-1], law.ps[1:]):
            a, b, pa, pb = (mp.mpf(float(v)) for v in (a, b, pa, pb))
            c1 = (pb - pa) / (b - a)
            c0 = pa - c1 * a

            def f0(x):
                return mp.exp(lam * x) * ((c0 + c1 * x) / lam - c1 / lam**2)

            def f1(x):
                return mp.exp(lam * x) * (
                    (c0 * x + c1 * x * x) / lam - (c0 + 2 * c1 * x) / lam**2 + 2 * c1 / lam**3
                )

            m0 += f0(b) - f0(a)
            m1 += f1(b) - f1(a)
        return float(mp.log(m0)), float(m1 / m0)


class TestContinuousClosedForm:
    @pytest.mark.parametrize("lam", [-50.0, -3.0, -1e-3, 1e-9, 0.3, 1.0, 2.0, 4.0, 10.0, 40.0, 300.0])
    def test_sixty_one_nodes_against_mpmath(self, lam):
        # one node past the old quadrature's 60-breakpoint limit, where it raised
        # PrecisionError at every lam from -3 to 10
        mp = pytest.importorskip("mpmath")
        values = np.random.default_rng(3).uniform(0.1, 1.0, 61)
        law = continuous_disorder(np.linspace(0.0, 3.0, 61), values)
        want_log_m, want_mean = continuous_moments_mpmath(mp, law, lam)
        rel = 1e-12 if abs(want_log_m) > 1e-3 else 0.0
        assert log_mgf(law, lam) == pytest.approx(want_log_m, rel=rel, abs=1e-14)
        assert tilted_mean(law, lam) == pytest.approx(want_mean, rel=rel, abs=1e-14)

    @pytest.mark.parametrize("lam", [100.0, 300.0])
    def test_density_vanishing_below_the_top_node(self, lam):
        # adaptive quadrature read log M(100) 3.8e-6 low here, without an error
        mp = pytest.importorskip("mpmath")
        law = continuous_disorder([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 0.0, 0.0])
        want_log_m, want_mean = continuous_moments_mpmath(mp, law, lam)
        assert log_mgf(law, lam) == pytest.approx(want_log_m, rel=1e-12, abs=0.0)
        assert tilted_mean(law, lam) == pytest.approx(want_mean, rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("lam", [-700.0, -300.0, -1.0, 1e-9, 1.0, 300.0, 600.0, 700.0])
    @pytest.mark.parametrize(
        "grid, values",
        [
            ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 0.0, 0.0]),
            ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0, 1.0]),
            ([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2, 1.0, 1.5, 1.0, 0.2]),
        ],
        ids=["vanishing-top", "vanishing-bottom", "positive-ends"],
    )
    def test_large_tilts_against_mpmath(self, grid, values, lam):
        # a density that vanishes on its outer segments raised a bare
        # ValueError from 600 on, when the shift sat at the grid's end
        mp = pytest.importorskip("mpmath")
        law = continuous_disorder(grid, values)
        want_log_m, want_mean = continuous_moments_mpmath(mp, law, lam)
        assert log_mgf(law, lam) == pytest.approx(want_log_m, rel=1e-12, abs=1e-14)
        assert tilted_mean(law, lam) == pytest.approx(want_mean, rel=1e-12, abs=1e-14)


class TestFairSignsFold:
    """The two-atom table ``(-1, 1), (1/2, 1/2)`` against ``log cosh`` and
    ``tanh`` at 60 digits."""

    LAMS = [s * x for x in (1e-12, 1e-9, 1e-3, 0.8, 2.5, 30.0, 350.0, 700.0) for s in (1, -1)]

    @pytest.mark.parametrize("lam", LAMS)
    def test_against_log_cosh_and_tanh(self, lam):
        mp = pytest.importorskip("mpmath")
        law = rademacher_disorder()
        with mp.workdps(60):
            want_log_m = float(mp.log(mp.cosh(mp.mpf(lam))))
            want_mean = float(mp.tanh(mp.mpf(lam)))
        assert abs(log_mgf(law, lam) - want_log_m) <= 1e-15 * max(1.0, abs(want_log_m))
        assert abs(tilted_mean(law, lam) - want_mean) <= 1e-15


class TestSmallTiltTable:
    """``log M`` of an atom table near ``lam = 0``, where it is about
    ``lam^2 / 2`` and the plain sum ``sum p e^{lam x}`` keeps only absolute
    accuracy (170 times the value for fair signs at 1e-9)."""

    @pytest.mark.parametrize("lam", [s * x for x in (1e-12, 1e-9, 1e-6, 1e-3) for s in (1, -1)])
    @pytest.mark.parametrize(
        "law",
        [rademacher_disorder(), discrete_disorder([-2.0, 0.5, 3.0], [0.3, 0.5, 0.2])],
        ids=["fair-signs", "three-atoms"],
    )
    def test_relative_accuracy_against_mpmath(self, law, lam):
        # the reference sums the stored table exactly, so the three-atom
        # table's first moment (about -2e-17, not 0) counts at lam 1e-12
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            want = float(mp.log(mp.fsum(
                mp.mpf(float(p)) * mp.exp(mp.mpf(lam) * mp.mpf(float(x)))
                for p, x in zip(law.ps, law.xs)
            )))
        assert abs(log_mgf(law, lam) - want) <= 1e-10 * abs(want)


class TestExtremeTiltTable:
    """Atom tables at ``|lam|`` near the float maximum: the tilt keeps the
    atom where ``lam x`` is largest, with no overflow warning and no NaN."""

    LAWS = pytest.mark.parametrize(
        "law",
        [rademacher_disorder(), discrete_disorder([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2])],
        ids=["fair-signs", "three-atoms"],
    )

    @LAWS
    @pytest.mark.parametrize("lam", [1e308, -1e308])
    def test_tilt_keeps_the_anchor_atom(self, law, lam):
        top = -1 if lam > 0 else 0
        anchor, p_anchor = float(law.xs[top]), float(law.ps[top])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_mgf(law, lam) == lam * anchor + math.log(p_anchor)
            assert tilted_mean(law, lam) == anchor
            draws = tilt_transform(law, np.linspace(0.0, 1.0, 11, endpoint=False), lam)
        assert np.all(draws == anchor)

    @LAWS
    @pytest.mark.parametrize("beta", [50.0, 1e14, 1e16, 1e300, 1.5e308, 2.0**1023])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
    def test_entropies_reach_their_limit(self, law, beta, sign):
        # log Xi and h(mu_beta | mu_0) both tend to -log p of the atom where
        # beta x is largest; the beta * anchor terms cancel before rounding,
        # so the O(1) limit survives every beta up to the float maximum.
        # Tilting down is tilting the mirrored law up
        want = relative_entropy_limit(discrete_disorder(sign * law.xs, law.ps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (log_xi(law, sign * beta), relative_entropy_tilt(law, sign * beta))
        for value in got:
            assert abs(value - want) <= 1e-15 * want, (got, want)

    def test_massless_atoms_are_dropped(self):
        # a massless top atom would anchor the tilt where the law has no mass
        law = discrete_disorder([-1.0, 0.0, 1.0], [0.5, 0.5, 0.0])
        fair = rademacher_disorder()
        assert (law.family, law.xs.tolist(), law.ps.tolist()) == (
            fair.family, fair.xs.tolist(), fair.ps.tolist()
        )
        assert relative_entropy_limit(law) == math.log(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in (1000.0, -1000.0, 1e300, -1e300):
                values = (log_mgf(law, beta), relative_entropy_tilt(law, beta), log_xi(law, beta))
                assert all(math.isfinite(v) for v in values), (beta, values)
                assert values[1:] == (math.log(2.0), math.log(2.0))
        with pytest.raises(InvalidParameterError, match="degenerate"):
            discrete_disorder([0.0, 1.0], [1.0, 0.0])

    def test_overflowing_log_mgf_is_inf(self):
        law = discrete_disorder([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_mgf(law, 1.5e308) == math.inf
            assert log_mgf(law, -1.5e308) == math.inf


class TestExtremeTiltContinuous:
    """Continuous laws at large ``|beta|``: the tilt is taken from the end of
    the support where ``beta x`` is largest, so ``log Xi`` and ``h(mu_beta |
    mu_0)`` follow their asymptotes up to the float maximum, with no
    warning.  For the uniform density they are ``log(|beta| / (2 p_end))``
    and ``log(|beta| / p_end) - 1``, ``p_end`` the density at that end, up
    to terms of order ``e^{-|beta| width}``."""

    @pytest.mark.parametrize("beta", [1e9, 1e12, 1e15, 1e16, 1e17, 1e100, 1e300, 2.0**1023])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
    def test_entropies_follow_their_asymptotes(self, beta, sign):
        law = uniform_continuous_law()
        log_p_end = math.log(float(law.ps[-1] if sign > 0 else law.ps[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi = log_xi(law, sign * beta)
            entropy = relative_entropy_tilt(law, sign * beta)
        want_xi = math.log(beta) - math.log(2.0) - log_p_end
        assert abs(xi - want_xi) <= 1e-9 * want_xi, (xi, want_xi)
        want_entropy = math.log(beta) - log_p_end - 1.0
        assert abs(entropy - want_entropy) <= 1e-9, (entropy, want_entropy)

    @pytest.mark.parametrize(
        "law",
        [
            uniform_continuous_law(),
            continuous_disorder([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2, 1.0, 1.5, 1.0, 0.2]),
            # density 0 at the right end: log Xi grows like 2 log beta there
            continuous_disorder([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 0.0, 0.0]),
        ],
        ids=["uniform", "peaked", "one-sided"],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
    def test_entropies_nondecreasing_in_beta(self, law, sign):
        betas = [sign * float(b) for b in np.geomspace(1.0, 1e300, 601)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi = [log_xi(law, b) for b in betas]
            entropy = [relative_entropy_tilt(law, b) for b in betas]
        assert np.all(np.diff(xi) >= 0.0)
        assert np.all(np.diff(entropy) >= 0.0)

    @pytest.mark.parametrize("lam", [1e300, -1e300])
    def test_log_mgf_and_mean_at_extreme_tilt(self, lam):
        law = uniform_continuous_law()
        top = float(law.xs[-1] if lam > 0 else law.xs[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(log_mgf(law, lam))
            assert tilted_mean(law, lam) == pytest.approx(top, rel=1e-15)

    @pytest.mark.parametrize(
        "law",
        [
            continuous_disorder([-1.0, 0.0, 1.0, 2.0], [1.0, 0.5, 0.2, 0.0]),
            continuous_disorder([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 1.0, 0.0]),
        ],
        ids=["zero-at-right-end", "zero-at-both-ends"],
    )
    def test_underflowing_mass_is_precision_error(self, law):
        # where the density is 0 at the end that anchors the tilt, the tilted
        # mass is of order 1/lam^2 and underflows from |lam| near 1.5e161:
        # log M raises there and the tilted mean is that end exactly.  At
        # every other tilt up to the float maximum log M matches its anchored
        # form, and at every tilt the mean lies in the support
        tilts = [0.0] + [s * 2.0 ** float(e) for e in np.linspace(-40.0, 1023.0, 128)
                         for s in (1.0, -1.0)]
        raised = []
        for lam in tilts:
            mean = tilted_mean(law, lam)
            assert law.xs[0] <= mean <= law.xs[-1], lam
            try:
                value = log_mgf(law, lam)
            except PrecisionError as exc:
                assert str(exc) == f"tilted mass underflows at tilt {lam!r}"
                assert mean == float(law.xs[-1] if lam > 0 else law.xs[0]), lam
                raised.append(abs(lam))
                continue
            anchor, rest = _anchored_log_mgf(law, lam)
            assert abs(value - (lam * anchor + rest)) <= 1e-15 * max(1.0, abs(value)), lam
        assert raised and min(raised) > 1e160

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
    def test_draws_at_extreme_tilt(self, sign):
        # the tilt is formed as beta (x - top), so nothing overflows up to the
        # float maximum; past e^-745 every factor but the end's is 0, so the
        # draws at 1e300 and 2^1023 agree (their spread over the last segment,
        # far wider than the tilted law's 1/beta, comes from the inverse CDF
        # interpolated between nodes)
        law = uniform_continuous_law()
        base = np.linspace(0.0, 1.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [tilt_transform(law, base, sign * beta) for beta in (1e300, 2.0**1023)]
        for got in draws:
            assert np.isfinite(got).all()
            assert law.xs[0] <= got.min() and got.max() <= law.xs[-1]
        np.testing.assert_array_equal(draws[0], draws[1])

    @pytest.mark.parametrize("beta", [800.0, 1000.0])
    def test_draws_past_every_node_factor_are_precision_error(self, beta):
        # the density is 0 at the node top, and every other node factor
        # exp(beta (x - top)) underflows to 0, so the tilted CDF has no mass
        # to normalize; it used to return NaN draws
        law = continuous_disorder([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match=f"tilt {beta!r}"):
                tilt_transform(law, np.array([0.1, 0.5, 0.9]), beta)

    def test_draws_at_tilt_zero_are_the_plain_inverse_cdf(self):
        # at tilt 0 every factor is exp(0) = 1, so the draws are the inverse of
        # the untilted trapezoid CDF, bit for bit
        law = continuous_disorder([0.0, 1.0, 2.0, 4.0], [1.0, 3.0, 1.0, 0.5])
        base = sample_base(law, derive_stream(3, 0), 1000)
        gaps = np.diff(law.xs) * 0.5 * (law.ps[1:] + law.ps[:-1])
        cdf = np.concatenate([[0.0], np.cumsum(gaps)])
        cdf /= cdf[-1]
        for beta in (0.0, -0.0):
            np.testing.assert_array_equal(tilt_transform(law, base, beta),
                                          np.interp(base, cdf, law.xs))


class TestTilt:
    @ALL_LAWS
    def test_identity_tilt(self, law):
        assert math.exp(log_mgf(law, 0.0)) == pytest.approx(1.0, abs=1e-12)
        assert tilted_mean(law, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_mean_shift(self):
        assert tilted_mean(gaussian_disorder(), 1.0) == 1.0

    def test_rademacher_tanh(self):
        assert tilted_mean(rademacher_disorder(), 1.0) == pytest.approx(
            math.tanh(1.0), abs=1e-14
        )

    @ALL_LAWS
    def test_tilted_mean_is_log_mgf_slope(self, law):
        beta, eps = 0.8, 1e-6
        slope = (log_mgf(law, beta + eps) - log_mgf(law, beta - eps)) / (2 * eps)
        assert tilted_mean(law, beta) == pytest.approx(slope, abs=1e-7)


class TestRelativeEntropy:
    @ALL_LAWS
    def test_zero_iff_zero_tilt(self, law):
        assert relative_entropy_tilt(law, 0.0) == 0.0
        assert relative_entropy_tilt(law, 0.7) > 0.0

    def test_gaussian_closed_form(self):
        for beta in (0.3, 1.0, 2.5):
            assert relative_entropy_tilt(gaussian_disorder(), beta) == pytest.approx(
                beta**2 / 2.0, abs=1e-12
            )

    def test_rademacher_value(self):
        got = relative_entropy_tilt(rademacher_disorder(), 1.0)
        want = math.tanh(1.0) - math.log(math.cosh(1.0))
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(0.3278133, abs=1e-7)

    @ALL_LAWS
    def test_matches_density_ratio_integral(self, law):
        for beta in (0.4, 1.1):
            assert relative_entropy_tilt(law, beta) == pytest.approx(
                relative_entropy_direct(law, beta), abs=1e-8
            )

    def test_limits(self):
        assert abs(relative_entropy_tilt(rademacher_disorder(), 30.0) - math.log(2.0)) <= 1e-6
        assert relative_entropy_tilt(gaussian_disorder(), 100.0) > 1e3
        assert relative_entropy_limit(rademacher_disorder()) == pytest.approx(math.log(2.0))
        assert math.isinf(relative_entropy_limit(gaussian_disorder()))


def xi(law, beta):
    return math.exp(log_xi(law, beta))


class TestXi:
    @ALL_LAWS
    def test_unit_at_zero_and_monotone(self, law):
        assert xi(law, 0.0) == 1.0
        grid = np.linspace(0.0, 3.0, 31)
        vals = [xi(law, b) for b in grid]
        assert all(v >= 1.0 - 1e-12 for v in vals)
        assert all(b - a >= -1e-10 for a, b in zip(vals, vals[1:]))

    def test_gaussian_closed_form(self):
        for beta in (0.5, 1.0, 2.0):
            assert xi(gaussian_disorder(), beta) == pytest.approx(
                math.exp(beta**2), rel=1e-12
            )

    def test_rademacher_limit_is_inverse_atom(self):
        law = rademacher_disorder()
        assert abs(xi(law, 50.0) - 1.0 / law.ps[-1]) <= 1e-6
        assert abs(math.log(xi(law, 50.0)) - relative_entropy_limit(law)) <= 1e-6


class TestSampling:
    @ALL_LAWS
    def test_deterministic_given_stream(self, law):
        a = sample(law, derive_stream(42, 0), 100)
        b = sample(law, derive_stream(42, 0), 100)
        np.testing.assert_array_equal(a, b)

    def test_rademacher_mean_clt(self):
        draws = sample(rademacher_disorder(), derive_stream(7, 0), 10**6)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) <= 4.0 / math.sqrt(10**6)

    def test_gaussian_tilt_mean_clt(self):
        law = gaussian_disorder()
        draws = tilt_transform(law, sample_base(law, derive_stream(8, 0), 10**6), 1.0)
        assert abs(draws.mean() - 1.0) <= 4.0 / math.sqrt(10**6)

    def test_discrete_tilt_mean(self):
        law = discrete_disorder([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        beta = 0.9
        draws = tilt_transform(law, sample_base(law, derive_stream(9, 0), 10**6), beta)
        assert abs(draws.mean() - tilted_mean(law, beta)) <= 6.0 / math.sqrt(10**6)

    @pytest.mark.parametrize(
        "grid, values, beta",
        [
            ([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 0.0, 0.0], 300.0),
            ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0, 1.0], -300.0),
            ([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2, 1.0, 1.5, 1.0, 0.2], -400.0),
            ([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2, 1.0, 1.5, 1.0, 0.2], 700.0),
        ],
        ids=["vanishing-top", "vanishing-bottom", "positive-ends-neg", "positive-ends-pos"],
    )
    def test_continuous_large_tilt_draws(self, grid, values, beta):
        # scaled at the grid's end, every segment with mass underflowed (or
        # the scale overflowed) and each draw was NaN
        law = continuous_disorder(grid, values)
        base = np.linspace(0.0, 1.0, 1001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = tilt_transform(law, base, beta)
        assert np.all(np.isfinite(draws))
        assert law.xs[0] <= draws.min() and draws.max() <= law.xs[-1]
        assert np.all(np.diff(draws) >= 0.0)

    def test_continuous_untilted_draws_unchanged(self):
        # sample draws at tilt 0: the inverse of the table's own trapezoid CDF
        law = continuous_disorder([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2, 1.0, 1.5, 1.0, 0.2])
        base = sample_base(law, derive_stream(11, 0), 1000)
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(law.xs) * 0.5 * (law.ps[1:] + law.ps[:-1]))])
        cdf /= cdf[-1]
        want = np.interp(base, cdf, law.xs)
        np.testing.assert_array_equal(sample(law, derive_stream(11, 0), 1000), want)

    def test_continuous_tilt_mean(self):
        law = uniform_continuous_law()
        beta = 0.8
        draws = tilt_transform(law, sample_base(law, derive_stream(10, 0), 10**6), beta)
        assert abs(draws.mean() - tilted_mean(law, beta)) <= 0.01
