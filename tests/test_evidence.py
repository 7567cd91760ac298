import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bayes_arbiter.distributions import CountDataset
from bayes_arbiter.errors import AccuracyError, ImproperEvidenceError
from bayes_arbiter.evidence import (
    _MAX_PANELS,
    _REFINEMENT_TOL,
    NormalSummary,
    _panel_count,
    log_bf01_lindley,
    log_bf10_normal,
    log_bf10_normal_quadrature,
    log_bf12_printed,
    log_bf12_shared_improper,
    log_marginal_geometric_improper,
    log_marginal_poisson_improper,
    log_marginal_quadrature,
    posterior_prob_from_log_bf,
)
from bayes_arbiter.rng import Rng, RngSeed


class TestNormalClosedForms:
    def test_bf10_reference_points(self):
        # frozen by direct evaluation of n t^2/(2(1+n)) - 0.5 ln(1+n)
        assert log_bf10_normal(NormalSummary(1, 0.0)).log_bf == pytest.approx(
            -0.5 * math.log(2.0), abs=1e-14
        )
        assert log_bf10_normal(NormalSummary(100, 0.2)).log_bf == pytest.approx(
            -0.32736223861864966, abs=1e-10
        )
        assert log_bf10_normal(NormalSummary(10_000, 0.1)).log_bf == pytest.approx(
            45.389780316461746, abs=1e-8
        )

    def test_bf01_reference_points(self):
        assert log_bf01_lindley(3, 0.0).log_bf == pytest.approx(math.log(2.0), abs=1e-14)
        assert log_bf01_lindley(10**6, 1.96).log_bf == pytest.approx(
            4.986957699779966, abs=1e-10
        )

    def test_reciprocal_identity_exact(self):
        rng = Rng(RngSeed(5150, 0))
        for _ in range(1000):
            n = 1 + int(rng.uniform() * 10**6)
            xbar = (rng.uniform() - 0.5) * 10.0
            t = math.sqrt(n) * abs(xbar)
            total = log_bf10_normal(NormalSummary(n, xbar)).log_bf + log_bf01_lindley(n, t).log_bf
            assert abs(total) <= 1e-12

    def test_standardization_reduces_general_case(self):
        general = log_bf10_normal(NormalSummary(50, 3.2, theta0=3.0, sigma=2.0))
        reduced = log_bf10_normal(NormalSummary(50, (3.2 - 3.0) / 2.0))
        assert general.log_bf == pytest.approx(reduced.log_bf, abs=1e-13)

    def test_lindley_monotone_in_n(self):
        grid = [100, 1000, 10_000, 100_000, 1_000_000]
        vals = [log_bf01_lindley(n, 1.96).log_bf for n in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_lindley_t_zero(self):
        assert log_bf01_lindley(9, 0.0).log_bf == pytest.approx(0.5 * math.log(10), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_bf01_lindley(0, 1.0)
        with pytest.raises(ValueError):
            log_bf01_lindley(10, -0.5)
        with pytest.raises(ValueError):
            NormalSummary(10, 0.0, sigma=0.0)
        with pytest.raises(ValueError, match="t must"):
            log_bf01_lindley(10, float("nan"))
        for field in ("xbar", "theta0", "sigma"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=field):
                    NormalSummary(10, **{"xbar": 0.0, field: bad})
        for bad in (float("nan"), float("inf"), 0.5, 1e308):
            with pytest.raises(ValueError, match="n must"):
                NormalSummary(bad, 0.3)
            with pytest.raises(ValueError, match="n must"):
                log_bf01_lindley(bad, 1.0)
        with pytest.raises(ValueError, match="t = 1e\\+200, n = 10"):
            log_bf01_lindley(10, 1e200)


class TestCountMarginals:
    def test_poisson_reference_points(self):
        assert log_marginal_poisson_improper(CountDataset([1])).log_evidence == pytest.approx(
            0.0, abs=1e-13
        )
        # ln G(5) - 5 ln 2 - ln 2 - ln 6, frozen by direct evaluation
        assert log_marginal_poisson_improper(CountDataset([2, 3])).log_evidence == pytest.approx(
            -2.772588722239782, abs=1e-11
        )

    def test_geometric_reference_points(self):
        assert log_marginal_geometric_improper(CountDataset([1])).log_evidence == pytest.approx(
            0.0, abs=1e-13
        )
        # ln G(5) + ln G(2) - ln G(7)
        assert log_marginal_geometric_improper(
            CountDataset([2, 3])
        ).log_evidence == pytest.approx(-3.4011973816621572, abs=1e-11)

    def test_bf12_shared_improper(self):
        assert log_bf12_shared_improper(CountDataset([1])).log_bf == pytest.approx(0.0, abs=1e-13)
        d = CountDataset([2, 3])
        expected = (
            log_marginal_poisson_improper(d).log_evidence
            - log_marginal_geometric_improper(d).log_evidence
        )
        assert expected == pytest.approx(0.6286086594223752, abs=1e-11)
        assert log_bf12_shared_improper(d).log_bf == pytest.approx(expected, abs=1e-12)

    def test_bf12_printed(self):
        assert log_bf12_printed(CountDataset([0])).log_bf == pytest.approx(0.0, abs=1e-13)
        # 5 ln 2 + ln 2 + ln 6 + ln G(9) - ln G(4), frozen by direct evaluation
        assert log_bf12_printed(CountDataset([2, 3])).log_bf == pytest.approx(
            14.763485986104921, abs=1e-10
        )
        assert log_bf12_printed(CountDataset([2, 3])).method == "printed_formula"

    def test_printed_and_shared_disagree(self):
        # the two formulas are genuinely different objects; record the gap
        d = CountDataset([2, 3])
        gap = log_bf12_printed(d).log_bf - log_bf12_shared_improper(d).log_bf
        assert abs(gap) > 1.0

    def test_all_zero_degenerate(self):
        zeros = CountDataset([0, 0, 0])
        for fn in (
            log_marginal_poisson_improper,
            log_marginal_geometric_improper,
            log_bf12_shared_improper,
        ):
            with pytest.raises(ImproperEvidenceError):
                fn(zeros)
        # the printed formula stays finite at S=0 by construction
        assert math.isfinite(log_bf12_printed(zeros).log_bf)


class TestQuadratureOracle:
    def test_matches_closed_forms_on_reference_dataset(self):
        d = CountDataset([2, 3])
        q_pois = log_marginal_quadrature(d, "poisson")
        q_geo = log_marginal_quadrature(d, "geometric")
        assert q_pois.log_evidence == pytest.approx(-2.772588722239782, abs=1e-6)
        assert q_geo.log_evidence == pytest.approx(-3.4011973816621572, abs=1e-6)
        assert q_pois.method == "quadrature"
        assert q_pois.error_estimate is not None

    def test_oracle_equivalence_random_datasets(self):
        rng = Rng(RngSeed(90210, 0))
        for _ in range(50):
            n = 1 + int(rng.uniform() * 50)
            values = np.minimum(rng.poisson(3.0, size=n), 30)
            if values.sum() < 1:
                values[0] = 1
            d = CountDataset(values)
            cf_p = log_marginal_poisson_improper(d).log_evidence
            cf_g = log_marginal_geometric_improper(d).log_evidence
            assert log_marginal_quadrature(d, "poisson").log_evidence == pytest.approx(
                cf_p, abs=1e-6
            )
            assert log_marginal_quadrature(d, "geometric").log_evidence == pytest.approx(
                cf_g, abs=1e-6
            )

    def test_normal_testbed_quadrature(self):
        for n, xbar in ((1, 0.0), (25, 0.3), (400, -0.05), (10_000, 0.02)):
            s = NormalSummary(n, xbar)
            assert log_bf10_normal_quadrature(s).log_bf == pytest.approx(
                log_bf10_normal(s).log_bf, abs=1e-8
            )

    def test_rejects_bad_labels_and_degenerate(self):
        d = CountDataset([1, 2])
        with pytest.raises(ValueError):
            log_marginal_quadrature(d, "binomial")
        with pytest.raises(ImproperEvidenceError):
            log_marginal_quadrature(CountDataset([0]), "poisson")

    def test_unconverged_raises_accuracy_error(self):
        # at a total of 10^15 the log integrals are so large that the refined
        # rule moves them by far more than the absolute 1e-8 bound
        for family, moved in (("poisson", "2.500e-01"), ("geometric", "2.998e-01")):
            with pytest.raises(AccuracyError, match=f"refinement moved by {moved}") as exc:
                log_marginal_quadrature(CountDataset([10**15, 0, 0, 0, 0]), family)
            assert math.isfinite(exc.value.estimate)
        # the normal oracle checks its refinement too
        with pytest.raises(AccuracyError, match="refinement moved by 6.104e-05") as exc:
            log_bf10_normal_quadrature(NormalSummary(10**15, 1e6))
        assert math.isfinite(exc.value.estimate)

    def test_max_panels_is_a_cap(self):
        # the floor of 8 panels applies first, then the cap
        assert _panel_count(0.0, 1.0, 1.0) == 8
        assert _panel_count(0.0, 100.0, 0.1) == _MAX_PANELS == 128


class TestPosteriorModelProbabilities:
    def test_prob_from_log_bf(self):
        assert posterior_prob_from_log_bf(0.0) == pytest.approx(0.5)
        assert posterior_prob_from_log_bf(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)
        assert posterior_prob_from_log_bf(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert posterior_prob_from_log_bf(800.0) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10**6),
    xbar=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_reciprocal_identity_property(n, xbar):
    t = math.sqrt(n) * abs(xbar)
    total = log_bf10_normal(NormalSummary(n, xbar)).log_bf + log_bf01_lindley(n, t).log_bf
    assert abs(total) <= 1e-12



@st.composite
def _count_datasets(draw):
    # totals up to 1e6 - n, so every ln Gamma argument of the closed form
    # stays in [1, 1e6], where gammaln is within 1e-12 max(1, |ln Gamma|)
    n = draw(st.integers(min_value=1, max_value=300))
    total = draw(st.integers(min_value=1, max_value=10**6 - n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return CountDataset(np.random.default_rng(seed).multinomial(total, [1.0 / n] * n))


@settings(max_examples=100, deadline=None)
@given(data=_count_datasets())
def test_shared_bf_matches_quadrature_property(data):
    closed = log_bf12_shared_improper(data).log_bf
    quadrature = (
        log_marginal_quadrature(data, "poisson").log_evidence
        - log_marginal_quadrature(data, "geometric").log_evidence
    )
    # each quadrature is refined to _REFINEMENT_TOL; each ln Gamma of the
    # closed form is within 1e-12 max(1, |ln Gamma|)
    log_gammas = (gammaln(float(data.total + data.n)), gammaln(float(data.n)))
    tol = 2 * _REFINEMENT_TOL + sum(1e-12 * max(1.0, abs(g)) for g in log_gammas)
    assert abs(closed - quadrature) <= tol, (data.n, data.total, closed - quadrature)
