import math

import numpy as np
import pytest

from holoflow import (
    BadParameter,
    BetaRule,
    CoefSpace,
    ParseError,
    SeriesFn,
    parse_space,
)

H2 = CoefSpace.h2()
BERGMAN = CoefSpace.bergman()
DIRICHLET = CoefSpace.dirichlet()


def series(*coeffs):
    return SeriesFn(list(coeffs))


class TestNorm:
    def test_constant(self):
        assert H2.norm(series(1, 0, 0)) == 1.0

    def test_two_ones(self):
        assert H2.norm(series(0, 1, 1, 0)) == pytest.approx(math.sqrt(2))

    def test_dirichlet_weights_first_coefficient(self):
        # beta_1 = sqrt(2) under the (n+1)^(1/2) convention
        assert DIRICHLET.norm(series(0, 1, 0)) == pytest.approx(math.sqrt(2))

    def test_matches_defining_sum(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        f = SeriesFn(c)
        for space in (H2, BERGMAN, DIRICHLET,
                      CoefSpace(3.0, BetaRule.power(0.25))):
            beta = space.beta.sequence(8)
            want = sum((abs(a) * b) ** space.p
                       for a, b in zip(c, beta)) ** (1 / space.p)
            assert space.norm(f) == pytest.approx(want, rel=1e-12)

    def test_homogeneity_exact(self):
        f = series(1, -2, 3j, 0.5)
        lam = 1.75
        assert H2.norm(f * lam) == pytest.approx(lam * H2.norm(f), rel=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = SeriesFn(rng.standard_normal(7) + 1j * rng.standard_normal(7))
            b = SeriesFn(rng.standard_normal(7) + 1j * rng.standard_normal(7))
            assert H2.norm(a + b) <= H2.norm(a) + H2.norm(b) + 1e-12


class TestEvalNorm:
    def test_center(self):
        assert H2.eval_norm(0j, 50) == 1.0

    def test_h2_geometric_closed_form(self):
        assert H2.eval_norm(0.6, 200) == pytest.approx(1.25, abs=1e-6)

    def test_bergman_closed_form(self):
        want = math.sqrt(1 / (1 - 0.25) ** 2)
        assert BERGMAN.eval_norm(0.5, 400) == pytest.approx(want, abs=1e-5)

    def test_monotone_in_degree_with_tail_bound(self):
        z = 0.7j
        prev = 0.0
        for n in (10, 20, 40, 80):
            v = H2.eval_norm(z, n)
            assert v >= prev
            prev = v
            tail = abs(z) ** (2 * n + 2) / (1 - abs(z) ** 2)
            assert (1 / (1 - abs(z) ** 2)) - v**2 <= tail + 1e-12

    def test_rejects_boundary_and_p_not_two(self):
        with pytest.raises(BadParameter):
            H2.eval_norm(1.0, 10)
        with pytest.raises(BadParameter):
            CoefSpace(1.0, BetaRule.constant()).eval_norm(0.5, 10)

    def test_reproducing_inequality(self):
        rng = np.random.default_rng(9)
        for space in (H2, BERGMAN, DIRICHLET):
            for _ in range(10):
                f = SeriesFn(rng.standard_normal(13)
                             + 1j * rng.standard_normal(13))
                z = 0.8 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
                bound = space.norm(f) * space.eval_norm(z, 12)
                assert abs(f.eval_at(z)) <= bound * (1 + 1e-12)


class TestConditionE:
    @pytest.mark.parametrize("space,expected", [
        (H2, "Satisfied"),
        (BERGMAN, "Satisfied"),
        (DIRICHLET, "Satisfied"),
        (CoefSpace(2.0, BetaRule.power(0.6)), "Violated"),
        (CoefSpace(2.0, BetaRule.geometric(2.0)), "Violated"),
        (CoefSpace(1.0, BetaRule.power(-0.5)), "Satisfied"),
    ])
    def test_table(self, space, expected):
        assert space.condition_e().status == expected

    def test_power_flip_at_one_half(self):
        assert CoefSpace(2.0, BetaRule.power(0.5)).condition_e().status == \
            "Satisfied"
        assert CoefSpace(2.0, BetaRule.power(0.5000001)).condition_e().status \
            == "Violated"

    def test_geometric_ratio_one_satisfied(self):
        assert CoefSpace(2.0, BetaRule.geometric(1.0)).condition_e().status \
            == "Satisfied"

    def test_p_one_cases(self):
        assert CoefSpace(1.0, BetaRule.constant()).condition_e().status == \
            "Violated"
        assert CoefSpace(1.0, BetaRule.geometric(1.5)).condition_e().status \
            == "Violated"


class TestBetaRule:
    def test_geometric_below_one_rejected(self):
        with pytest.raises(BadParameter):
            BetaRule.geometric(0.5)

    def test_sequences(self):
        assert list(BetaRule.constant().sequence(3)) == [1, 1, 1, 1]
        assert BetaRule.power(0.5).sequence(3)[1] == pytest.approx(
            math.sqrt(2))
        assert list(BetaRule.geometric(2.0).sequence(3)) == [1, 2, 4, 8]


class TestParsing:
    def test_named_spaces(self):
        assert parse_space("h2") == H2
        assert parse_space("bergman") == BERGMAN
        assert parse_space("dirichlet") == DIRICHLET

    def test_hpbeta_forms(self):
        s = parse_space("hpbeta:p=2,beta=pow:0.5")
        assert s.p == 2.0 and s.beta == BetaRule.power(0.5)
        s = parse_space("hpbeta:p=1,beta=geom:1.0")
        assert s.p == 1.0 and s.beta == BetaRule.geometric(1.0)
        s = parse_space("hpbeta:p=3,beta=const")
        assert s.p == 3.0 and s.beta == BetaRule.constant()

    def test_rejections(self):
        for bad in ("hardy", "hpbeta:p=2", "hpbeta:beta=pow:1",
                    "hpbeta:p=0.5,beta=const", "hpbeta:p=2,beta=geom:0.5",
                    "hpbeta:p=2,beta=wat:1", "hpbeta:p=2,beta=pow:x",
                    "hpbeta:p=2,q=3,beta=const"):
            with pytest.raises(ParseError):
                parse_space(bad)

    def test_round_trip_text(self):
        assert parse_space(H2.to_text()) == H2
        assert parse_space(BERGMAN.to_text()) == BERGMAN
