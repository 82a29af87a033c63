import numpy as np
import pytest
from scipy import integrate, stats

from bibeta.baselines import (
    ArnoldParams,
    LibbyNovickParams,
    pdf_libby_novick,
    pdf_three_param,
    sample_arnold,
    sample_libby_novick,
)
from bibeta.construction import RandomStream
from bibeta.errors import DomainError


# the open-square clip bounds, as float.hex
_LO = "0x0.0000000000001p-1022"
_HI = "0x1.fffffffffffffp-1"


def _hex_rows(draws):
    return [[v.hex() for v in row] for row in draws.tolist()]


def _first_pass(shapes, n, seed):
    """A sampler's first-pass gamma draws: one array per shape, in order."""
    gen = RandomStream(seed).generator
    return [gen.standard_gamma(a, size=n) for a in shapes]


def quiet_dblquad(f, ax, bx, ay, by):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = integrate.dblquad(f, ax, bx, ay, by)
    return val


class TestThreeParamDensity:
    def test_uniform_corner_value(self):
        assert pdf_three_param(1, 1, 1, 0.5, 0.5) == pytest.approx(32.0 / 27.0, rel=1e-12)

    def test_normalizes(self):
        total = quiet_dblquad(lambda y, x: pdf_three_param(2.0, 3.0, 1.5, x, y),
                              0.0, 1.0, 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_marginal_is_beta(self):
        # integrating out y at fixed x must land on the Beta(a1, a0) density
        a0, a1, a2 = 2.0, 2.5, 1.8
        for x in (0.2, 0.5, 0.8):
            got, _ = integrate.quad(lambda y: pdf_three_param(a0, a1, a2, x, y), 0.0, 1.0)
            assert got == pytest.approx(stats.beta.pdf(x, a1, a0), rel=1e-8)

    def test_positive_quadrant_dependence(self):
        a0 = a1 = a2 = 2.0
        joint = quiet_dblquad(lambda y, x: pdf_three_param(a0, a1, a2, x, y),
                              0.7, 1.0, 0.7, 1.0)
        tail = stats.beta.sf(0.7, 2.0, 2.0)
        assert joint > tail * tail

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            pdf_three_param(0.0, 1.0, 1.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            pdf_three_param(1.0, 1.0, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            pdf_three_param(1.0, 1.0, 1.0, -0.1, 0.5)


class TestLibbyNovickDensity:
    def test_unit_rates_reduce_to_three_param(self):
        rng = np.random.Generator(np.random.PCG64(701))
        for _ in range(20):
            a0, a1, a2 = rng.uniform(0.3, 5.0, size=3)
            x, y = rng.uniform(0.05, 0.95, size=2)
            p = LibbyNovickParams(a0, a1, a2)
            assert pdf_libby_novick(p, x, y) == pytest.approx(
                pdf_three_param(a0, a1, a2, x, y), rel=1e-12
            )

    def test_normalizes_with_general_rates(self):
        p = LibbyNovickParams(2.0, 3.0, 4.0, b0=1.0, b1=1.5, b2=0.7)
        total = quiet_dblquad(lambda y, x: pdf_libby_novick(p, x, y), 0.0, 1.0, 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rate_ratio_properties(self):
        p = LibbyNovickParams(1.0, 1.0, 1.0, b0=2.0, b1=3.0, b2=5.0)
        assert p.lambda1 == pytest.approx(1.5)
        assert p.lambda2 == pytest.approx(2.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            LibbyNovickParams(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            LibbyNovickParams(1.0, 1.0, 1.0, b0=-2.0)
        with pytest.raises(DomainError):
            pdf_libby_novick(LibbyNovickParams(1, 1, 1), 0.5, 0.0)


class TestLibbyNovickSampler:
    def test_histogram_matches_density(self):
        p = LibbyNovickParams(2.0, 3.0, 4.0)
        draws = sample_libby_novick(p, 10 ** 6, RandomStream(711))
        n = draws.shape[0]
        bins = 20
        counts, _, _ = np.histogram2d(draws[:, 0], draws[:, 1],
                                      bins=bins, range=[[0, 1], [0, 1]])
        sub = (np.arange(5) + 0.5) / (5 * bins)
        for i in range(bins):
            for j in range(bins):
                xs = i / bins + sub
                ys = j / bins + sub
                vals = [pdf_libby_novick(p, x, y) for x in xs for y in ys]
                expected = np.mean(vals) / bins ** 2
                observed = counts[i, j] / n
                assert abs(observed - expected) <= 4.0 * np.sqrt(expected / n) + 1e-5

    def test_uniform_margin_mean(self):
        p = LibbyNovickParams(1.0, 1.0, 1.0)
        draws = sample_libby_novick(p, 10 ** 6, RandomStream(712))
        assert draws[:, 0].mean() == pytest.approx(0.5, abs=2e-3)

    def test_beta_margin_mean(self):
        # unit rates make the first margin Beta(a1, a0)
        p = LibbyNovickParams(2.0, 3.0, 4.0)
        draws = sample_libby_novick(p, 10 ** 6, RandomStream(713))
        assert draws[:, 0].mean() == pytest.approx(0.6, abs=1e-3)
        assert draws[:, 1].mean() == pytest.approx(4.0 / 6.0, abs=1e-3)

    def test_dependence_is_positive(self):
        p = LibbyNovickParams(2.0, 3.0, 4.0)
        draws = sample_libby_novick(p, 10 ** 5, RandomStream(714))
        assert np.corrcoef(draws[:, 0], draws[:, 1])[0, 1] > 0.1

    def test_draws_stay_inside(self):
        p = LibbyNovickParams(0.05, 0.05, 0.05)
        draws = sample_libby_novick(p, 20000, RandomStream(715))
        assert np.all(draws > 0.0) and np.all(draws < 1.0)

    def test_rejects_bad_n(self):
        p = LibbyNovickParams(1, 1, 1)
        with pytest.raises(DomainError):
            sample_libby_novick(p, 0, RandomStream(0))
        with pytest.raises(DomainError):
            sample_libby_novick(p, -5, RandomStream(0))

    def test_seeded_rows_are_pinned(self):
        p = LibbyNovickParams(2.0, 3.0, 4.0, 1.0, 1.5, 0.7)
        assert _hex_rows(sample_libby_novick(p, 3, RandomStream(5))) == [
            ["0x1.32b575f9b641dp-1", "0x1.bff6d5c962d2fp-1"],
            ["0x1.35b52ed681017p-1", "0x1.92575c4df3435p-1"],
            ["0x1.a23f8fcb31dcfp-3", "0x1.0340adc4d2bfep-1"],
        ]

    def test_redrawn_rows_are_pinned(self):
        # with shapes 1e-3 most gammas underflow to 0; three first-pass
        # pairs of this seed are 0/0 and are drawn again
        p = LibbyNovickParams(1e-3, 1e-3, 1e-3)
        g0, g1, g2 = _first_pass((p.a0, p.a1, p.a2), 6, 1)
        with np.errstate(invalid="ignore"):
            first = np.column_stack((g1 / (g1 + g0), g2 / (g2 + g0)))
        assert not np.isfinite(first).all()
        assert _hex_rows(sample_libby_novick(p, 6, RandomStream(1))) == [
            [_HI, _HI], [_LO, _LO], [_LO, _HI], [_HI, _HI],
            ["0x1.b8896fe36ede1p-180", "0x1.425d2a4282252p-88"], [_HI, _HI],
        ]


class TestArnoldSampler:
    def test_margins_are_beta(self):
        p = ArnoldParams(2.0, 1.0, 0.5, 1.5, 1.0)
        draws = sample_arnold(p, 10 ** 6, RandomStream(721))
        # X ~ Beta(a1+a3, a4+a5), Y ~ Beta(a2+a4, a3+a5)
        assert draws[:, 0].mean() == pytest.approx(2.5 / 5.0, abs=1e-3)
        assert draws[:, 1].mean() == pytest.approx(2.5 / 4.0, abs=1e-3)

    def test_negative_dependence_is_reachable(self):
        p = ArnoldParams(1.0, 1.0, 0.01, 5.0, 0.01)
        draws = sample_arnold(p, 10 ** 6, RandomStream(722))
        assert np.corrcoef(draws[:, 0], draws[:, 1])[0, 1] < -0.05

    def test_shared_component_limit_matches_libby_novick(self):
        # a3, a4 -> 0 collapses onto the Libby-Novick construction
        pa = ArnoldParams(1.5, 2.0, 1e-3, 1e-3, 2.5)
        pl = LibbyNovickParams(2.5, 1.5, 2.0)
        da = sample_arnold(pa, 10 ** 6, RandomStream(723))
        dl = sample_libby_novick(pl, 10 ** 6, RandomStream(724))
        ca = np.corrcoef(da[:, 0], da[:, 1])[0, 1]
        cl = np.corrcoef(dl[:, 0], dl[:, 1])[0, 1]
        assert ca == pytest.approx(cl, abs=0.01)

    def test_draws_stay_inside(self):
        p = ArnoldParams(0.05, 0.05, 0.05, 0.05, 0.05)
        draws = sample_arnold(p, 20000, RandomStream(725))
        assert np.all(draws > 0.0) and np.all(draws < 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            ArnoldParams(1.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            sample_arnold(ArnoldParams(1, 1, 1, 1, 1), 0, RandomStream(0))

    def test_seeded_rows_are_pinned(self):
        p = ArnoldParams(2.0, 1.0, 0.5, 1.5, 1.0)
        assert _hex_rows(sample_arnold(p, 3, RandomStream(5))) == [
            ["0x1.7018720de3b45p-2", "0x1.3151997f38e7fp-1"],
            ["0x1.10c76f8cccc46p-1", "0x1.217a89325343ap-1"],
            ["0x1.7c29099292d5ep-1", "0x1.b421bcc89a32ep-2"],
        ]

    def test_redrawn_rows_are_pinned(self):
        # one first-pass pair of this seed has every gamma of a ratio at 0
        p = ArnoldParams(1e-3, 1e-3, 1e-3, 1e-3, 1e-3)
        g1, g2, g3, g4, g5 = _first_pass((p.a1, p.a2, p.a3, p.a4, p.a5), 6, 1)
        with np.errstate(invalid="ignore"):
            first = np.column_stack(((g1 + g3) / (g1 + g3 + g4 + g5),
                                     (g2 + g4) / (g2 + g3 + g4 + g5)))
        assert not np.isfinite(first).all()
        assert _hex_rows(sample_arnold(p, 6, RandomStream(1))) == [
            ["0x1.82ed43b631173p-178", "0x1.025e3c2a335abp-56"],
            [_HI, _LO],
            [_HI, "0x1.092d4d017aa84p-186"],
            [_LO, "0x1.35b87146e7ae6p-421"],
            ["0x1.c9973fdf20437p-150", "0x1.7f4a97d02a96cp-758"],
            [_HI, _HI],
        ]


@pytest.mark.parametrize("sampler,params", [
    (sample_libby_novick, LibbyNovickParams(2.0, 3.0, 4.0)),
    (sample_arnold, ArnoldParams(2.0, 1.0, 0.5, 1.5, 1.0)),
])
class TestSampleCounts:
    def test_numpy_integer_count_is_an_int(self, sampler, params):
        got = sampler(params, np.int64(3), RandomStream(9))
        assert np.array_equal(got, sampler(params, 3, RandomStream(9)))

    @pytest.mark.parametrize("n", [0, -1, True, 2.0, np.int64(0), "3"])
    def test_rejects_counts_that_are_not_positive_integers(self, sampler, params, n):
        with pytest.raises(DomainError):
            sampler(params, n, RandomStream(9))
