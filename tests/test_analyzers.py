import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbspace import analyzers
from hbspace.analyzers import (
    _gap_weight,
    _kernel_mu_norms_squared,
    a2_check,
    a2_product,
    carleson_sup_scan,
    corona_check,
    direct_carleson_verdict,
    ess_inf_weighted,
    isometry_refutation,
    kernel_ratio_scan,
    log_radial_points,
    norm_equivalence_verdict,
    poisson_square_limit_check,
    reverse_carleson_verdict,
    reverse_inf_scan,
    sampling_refutation,
    symbol_reverse_feasibility,
    two_weight_necessary,
)
from hbspace.circle import grid_angles
from hbspace.cli import _report_exit
from hbspace.errors import DegenerateMeasureError, UnsupportedError
from hbspace.functions import GridOuter, PowerOuter, polynomial_fn
from hbspace.measures import (
    ArcWeight,
    ArcWindow,
    DiskAtoms,
    DiskMeasure,
    GridArcWeight,
    PairWeight,
    PowerArcWeight,
    RadialPower,
    SingularAtoms,
)
from hbspace.space import SymbolB, pair_from_outer_a, pythagorean_mate
from oracles import quadrature_depth_mass


@pytest.fixture(scope="module")
def half_sum():
    return pythagorean_mate(SymbolB.rational([0.5, 0.5]))


@pytest.fixture(scope="module")
def alpha_pair():
    return pair_from_outer_a(PowerOuter(0.25))


@pytest.fixture(scope="module")
def inv_gap_measure():
    # d(mu) = (1 - |b|^2)^-1 dm for the alpha pair, as an exact power density
    c = 2.0 ** -0.25
    return DiskMeasure(ac=PowerArcWeight(-0.5, c**-2, 0.0), label="inv-gap")


class TestReverseInfScan:
    def test_lebesgue_is_one_at_every_level(self):
        scan = reverse_inf_scan(DiskMeasure.lebesgue(), depth=10)
        assert all(abs(v - 1.0) < 1e-9 for v in scan.per_level)
        assert scan.verdict_positive_inf() == "pass"

    def test_interior_atom_fails(self):
        scan = reverse_inf_scan(DiskMeasure.point_mass(0.5, 2.0), depth=8)
        assert scan.value == 0.0
        assert scan.verdict_positive_inf() == "fail"

    def test_density_bounded_below(self):
        delta = 0.3
        scan = reverse_inf_scan(
            DiskMeasure.from_density_grid(np.full(512, delta)), depth=8
        )
        assert scan.value >= delta - 1e-12

    def test_level_minima_nonincreasing(self, alpha_pair):
        mu = DiskMeasure.from_density_grid(
            1.0 + 0.5 * np.sin(grid_angles(1024)) ** 2
        )
        scan = reverse_inf_scan(mu, depth=10)
        assert all(b <= a + 1e-15 for a, b in zip(scan.cumulative, scan.cumulative[1:]))


class TestCarlesonSupScan:
    def test_lebesgue(self):
        scan = carleson_sup_scan(DiskMeasure.lebesgue(), depth=10)
        assert scan.value == pytest.approx(1.0, abs=1e-9)
        assert abs(scan.exponent) < 0.01
        assert scan.verdict_bounded() == "pass"

    def test_radial_power_grows_at_rate_beta(self):
        scan = carleson_sup_scan(DiskMeasure.radial_power(0.5), depth=10)
        assert scan.verdict_bounded() == "fail"
        assert scan.exponent == pytest.approx(-0.5, abs=0.02)

    def test_level_maxima_nondecreasing(self):
        scan = carleson_sup_scan(DiskMeasure.radial_power(0.3), depth=10)
        assert all(b >= a - 1e-15 for a, b in zip(scan.cumulative, scan.cumulative[1:]))


class TestEssInf:
    def test_product_identity(self, alpha_pair, inv_gap_measure):
        res = ess_inf_weighted(alpha_pair, inv_gap_measure)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.verdict() == "pass"

    def test_reverse_canonical_at_least_one(self, alpha_pair):
        from hbspace.scenarios import build

        sc = build("reverse-canonical")
        res = ess_inf_weighted(sc.pair, sc.measure)
        assert res.value >= 1.0 - 1e-9

    def test_atomic_measure_gives_zero(self, half_sum):
        res = ess_inf_weighted(half_sum, DiskMeasure.point_mass(0.2, 1.0))
        assert res.value == 0.0
        assert res.verdict() == "fail"

    def test_vanishing_gap_detected_through_min_trend(self, half_sum):
        # (1 - |b|^2) h with h = 1 vanishes continuously at one boundary point:
        # every cell average is positive, but their minima decay, so ess inf = 0
        res = ess_inf_weighted(half_sum, DiskMeasure.lebesgue())
        assert res.value > 0
        assert res.verdict() == "fail"

    @pytest.mark.parametrize("t0", [0.0, 1.0])
    def test_weak_zero_is_undetermined_on_and_off_the_lattice(self, t0):
        # h = |1 - e^(i(t - t0))|^0.2 vanishes, but its cell minima shrink only
        # by 2^-0.2 a level: neither stable nor decaying by the scan rule, at a
        # lattice angle or off it
        pair = pythagorean_mate(SymbolB.rational([0.0, 0.5]))
        res = ess_inf_weighted(pair, DiskMeasure.boundary_power(-0.2, 1.0, t0))
        assert res.verdict() == "undetermined"

    @settings(max_examples=25, deadline=None)
    @given(beta=st.floats(-2.0, 0.9), angle=st.floats(0.0, 2 * np.pi),
           rotation=st.floats(0.0, 2 * np.pi))
    def test_level_minima_never_rise_and_witness_is_a_cell_average(self, beta, angle, rotation):
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5 * np.exp(-1j * rotation)]))
        measure = DiskMeasure.boundary_power(beta, 1.0, angle)
        res = ess_inf_weighted(pair, measure, size=2 ** 8)
        assert all(b <= a for a, b in zip(res.per_level, res.per_level[1:]))
        w = res.witness
        ac = measure.ac.weighted(pair.gap2_weight)
        assert ac.arc_integral(w["start"] * 2 * np.pi, w["length"]) / w["length"] == pytest.approx(
            w["value"], rel=1e-12)


class TestA2Check:
    def test_constant_weight(self):
        scan = a2_check(np.ones(512), depth=8)
        assert scan.value == pytest.approx(1.0, abs=1e-9)
        assert scan.verdict_bounded() == "pass"

    def test_small_power_passes(self):
        scan = a2_check(PowerArcWeight(0.5), depth=12)
        assert scan.verdict_bounded() == "pass"
        assert not scan.infinite_witnesses

    def test_large_power_fails_with_rate(self):
        scan = a2_check(PowerArcWeight(1.5), depth=12)
        assert scan.verdict_bounded() == "fail"
        assert scan.infinite_witnesses  # arcs at the singularity are infinite
        assert scan.exponent == pytest.approx(-0.5, abs=0.05)

    def test_single_arc_product(self):
        # (avg w)(avg 1/w) >= 1 by Cauchy-Schwarz, equality for constants
        assert a2_product(np.full(256, 3.0), ArcWindow(1.0, 0.2)) == pytest.approx(1.0)
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.0, 256)
        assert a2_product(w, ArcWindow(1.0, 0.2)) >= 1.0 - 1e-12


class TestTwoWeight:
    def test_reduces_to_a2_product_when_paired(self, alpha_pair):
        # h = |a|^-2 against w = |a|^2 is exactly the Muckenhoupt product
        c = 2.0 ** -0.25
        h = PowerArcWeight(-0.5, c**-2, 0.0)
        w = PowerArcWeight(0.5, c**2, 0.0)
        report, scan = two_weight_necessary(h, w, depth=10)
        a2 = a2_check(w, depth=10)
        assert scan.value == pytest.approx(a2.value, rel=1e-9)

    def test_constant_weights(self):
        report, scan = two_weight_necessary(np.ones(256), np.ones(256), depth=8)
        assert scan.value == pytest.approx(1.0, abs=1e-9)
        assert report.overall == "pass"

    def test_mixed_powers_bounded(self):
        # h ~ |1-e|^-0.5 and w ~ |1-e|^1.5: the paired averages stay bounded
        report, scan = two_weight_necessary(
            PowerArcWeight(-0.5), PowerArcWeight(1.5), depth=12
        )
        assert scan.verdict_bounded() == "pass"
        assert "necessary" in report.diagnostics["note"]


class TestCorona:
    def test_halfsum_infimum_is_one(self, half_sum):
        # |a| + |b| >= |a + b| = 1, attained on the real axis
        res = corona_check(half_sum, depth=12)
        assert res.infimum == pytest.approx(1.0, abs=1e-12)
        assert res.verdict == "pass"

    def test_trivial_pair(self):
        pair = pythagorean_mate(SymbolB.rational([0.0]))
        res = corona_check(pair, depth=8)
        assert res.infimum == pytest.approx(1.0)

    def test_blaschke_failure_tracks_zeros(self):
        from hbspace.scenarios import build

        sc = build("blaschke-corona", {"alpha": 0.4, "n_zeros": 12})
        res = corona_check(sc.pair, depth=12)
        assert res.verdict == "fail"
        c = 2.0 ** -0.4
        oracle = [c * 2.0 ** (-0.4 * n) for n in range(1, 13)]
        assert np.allclose(res.per_level, oracle, rtol=1e-6)


class TestWitnesses:
    """A scan's witness is the arc or probe point of its cumulative extreme, and reproduces it."""

    @staticmethod
    def reproduces_a2(weight, depth=10):
        scan = a2_check(weight, depth=depth)
        witness = scan.witness
        assert witness["value"] == scan.value
        product = a2_product(weight, (witness["start"], witness["length"]))
        assert product == pytest.approx(witness["value"], rel=1e-13, abs=0)
        return scan

    @pytest.mark.parametrize("gamma", [1.5, 2.0, -1.5, 0.5])
    def test_a2_witness_of_a_power_weight(self, gamma):
        scan = self.reproduces_a2(PowerArcWeight(gamma, 1.0, 2.0))
        # the arcs of 2^-10 turn whose closure holds the singularity, for a pole on either side
        touching = [325 / 1024, 325.5 / 1024] if abs(gamma) > 1 else []
        assert [w["start"] for w in scan.infinite_witnesses] == touching
        assert all(w["length"] == 2.0**-10 for w in scan.infinite_witnesses)

    def test_a2_witness_of_a_rotated_half_sum(self):
        # the zero of a sits at angle 2, and the witness arc is pinched against it
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5 * np.exp(-2j)]))
        scan = self.reproduces_a2(pair.gap2_weight)
        assert [w["start"] for w in scan.infinite_witnesses] == [325 / 1024, 325.5 / 1024]
        start, length = scan.witness["start"], scan.witness["length"]
        ends = np.array([start, start + length]) - 1.0 / np.pi
        assert np.min(np.abs(ends - np.rint(ends))) < 2.0**-10

    @pytest.fixture(scope="class")
    def mixed(self):
        return DiskMeasure(
            disk_atoms=DiskAtoms([0.6 * np.exp(2.5j), 0.3j], [0.7, 0.4]),
            ac=PowerArcWeight(-0.5, 1.2, 1.0),
            singular_atoms=SingularAtoms([4.0], [0.3]),
            radial=[RadialPower(5.0, 0.5, 0.4)],
        )

    @pytest.mark.parametrize("scan_fn", [carleson_sup_scan, reverse_inf_scan])
    def test_window_scan_witness(self, mixed, scan_fn):
        scan = scan_fn(mixed, depth=10)
        witness = scan.witness
        assert witness["value"] == scan.value
        ratio = mixed.window_mass((witness["start"], witness["length"])) / witness["length"]
        assert ratio == pytest.approx(witness["value"], rel=1e-13, abs=0)

    @pytest.mark.parametrize("name", ["half-sum", "blaschke-corona"])
    def test_corona_witness(self, name):
        from hbspace.scenarios import build

        pair = build(name).pair
        res = corona_check(pair, depth=10)
        z = res.witness["radius"] * np.exp(1j * res.witness["angle"])
        assert res.witness["value"] == res.infimum
        at = abs(complex(pair.a(z))) + abs(complex(pair.b.fn(z)))
        assert at == pytest.approx(res.witness["value"], rel=1e-12, abs=1e-12)


class TestKernelRatios:
    def test_isometric_case(self):
        pair = pythagorean_mate(SymbolB.rational([0.0]))
        scan = kernel_ratio_scan(pair, DiskMeasure.lebesgue(), depth=8)
        assert scan.max_ratio == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_measure_raises(self, half_sum):
        with pytest.raises(DegenerateMeasureError):
            kernel_ratio_scan(half_sum, DiskMeasure.point_mass(0.0, 0.0), depth=4)

    def test_scan_leaves_no_cycle_through_the_pair(self):
        # a density built from the pair, as the reverse-canonical scenario's is:
        # the pair's cached kernel spectra must not hold it, or pair and
        # spectra live on until a full garbage collection
        import gc
        import weakref

        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        mu = DiskMeasure.lebesgue().weighted(PairWeight(boundary=pair.gap2_fn, point=None))
        kernel_ratio_scan(pair, mu, depth=4)
        ref = weakref.ref(pair)
        gc.disable()
        try:
            del pair, mu
            assert ref() is None
        finally:
            gc.enable()

    def test_cauchy_variant(self, alpha_pair, inv_gap_measure):
        scan = kernel_ratio_scan(alpha_pair, inv_gap_measure, depth=8, variant="cauchy")
        assert np.isfinite(scan.max_ratio)

    MIXED = {"disk_atoms": [[0.3, 0.4, 0.5], [-0.6, 0.1, 0.3]],
             "ac_density": {"power": {"beta": 0.5, "scale": 1.2, "singularity_angle": 1.0}},
             "singular_atoms": [[3.0, 0.25]],
             "radial": [{"angle": 4.5, "power_beta": 0.5, "scale": 0.4}]}

    def test_kernel_norms_on_a_mixed_measure_keep_their_values(self, half_sum):
        # every 8th probe point at levels 4, 8 and 12, as computed before the cell
        # masses came from the weight's pyramid.  Those older cell masses were off by
        # up to 1.1e-7 relative in the cells facing the singular angle, which moves
        # these norms by up to 6e-12; hence 1e-11 rather than rounding level
        before = {
            4: [0.8689866856490022, 4.943980394574773, 21.106402629722705, 5.710021090038538],
            8: [0.8197972835318739, 8.50247920420857, 52.91718825436707, 102.49388983216289,
                131.5739775036335, 82.30644133683252, 31.94397172423367, 3.709360609046214],
            12: [0.8168015659820999, 115.26711340119022, 820.5222308386477, 1601.0984848300534,
                 1870.6527890052364, 1272.675015807046, 447.7423785642162, 43.2998926328813],
        }
        mu = DiskMeasure.from_json(self.MIXED)
        for j, lams in log_radial_points(12):
            if j in before:
                got = _kernel_mu_norms_squared(half_sum, mu, lams[::8], "hb")
                np.testing.assert_allclose(got, before[j], rtol=1e-11, atol=0.0)

    @staticmethod
    def _plain_grid_sums(pair, h, lams, variant):
        # mean_j h_j |k_lam(e^(i t_j))|^2, one probe point at a time
        e_it = np.exp(1j * grid_angles(h.size))
        b = pair.b_boundary(h.size)
        out = []
        for lam in lams:
            numer = 1.0
            if variant == "hb":
                numer = np.abs(1.0 - np.conj(pair.b.fn(np.array([lam]))[0]) * b) ** 2
            out.append(np.mean(h * numer / np.abs(1.0 - np.conj(lam) * e_it) ** 2))
        return np.array(out)

    @pytest.mark.parametrize("variant", ["hb", "cauchy"])
    @pytest.mark.parametrize("density", ["grid-8192", "grid-1000", "mixed-power"])
    def test_fft_route_matches_the_plain_grid_sum(self, half_sum, density, variant):
        if density == "mixed-power":
            weight = DiskMeasure.from_json(self.MIXED).ac
        else:
            size = int(density.split("-")[1])
            weight = GridArcWeight(np.random.default_rng(size).uniform(0.1, 2.0, size))
        h = weight.grid_density()
        mu = DiskMeasure(ac=weight)
        offsets = set()
        for j, lams in log_radial_points(12):
            offsets |= set(np.round((np.angle(lams) / (2 * np.pi) * h.size + 1e-9) % 1.0, 6))
            got = _kernel_mu_norms_squared(half_sum, mu, lams, variant)
            expect = self._plain_grid_sums(half_sum, h, lams, variant)
            np.testing.assert_allclose(got, expect, rtol=1e-11, atol=0.0)
        # the probe angles fall between the points of a 1000-point grid
        assert len(offsets) == (8 if density == "grid-1000" else 1)

    def test_half_sum_lebesgue_kernel_norms_in_closed_form(self):
        # <b k, k> = b(lam) ||k||^2 and P[|b|^2](lam) = (1 + Re lam)/2 for b = (1 + z)/2;
        # level 12 carries the grid's own alias 2 r^n ~ 2e-7
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        mu = DiskMeasure.lebesgue()
        for j, lams in log_radial_points(11):
            beta2 = np.abs(pair.b.fn(lams)) ** 2
            gap = 1.0 - np.abs(lams) ** 2
            hb = (1.0 - 2.0 * beta2 + beta2 * (1.0 + lams.real) / 2.0) / gap
            np.testing.assert_allclose(_kernel_mu_norms_squared(pair, mu, lams, "hb"), hb,
                                       rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(_kernel_mu_norms_squared(pair, mu, lams, "cauchy"),
                                       1.0 / gap, rtol=1e-10, atol=0.0)

    def test_hb_scan_takes_the_boundary_values_of_b_once(self, monkeypatch):
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        calls = []
        b_boundary = pair.b_boundary

        def counting(n):
            calls.append(n)
            return b_boundary(n)

        monkeypatch.setattr(pair, "b_boundary", counting)
        kernel_ratio_scan(pair, DiskMeasure.lebesgue(), depth=12, variant="hb")
        assert calls == [2 ** 16]

    def test_effective_density_cells_against_mpmath(self):
        # cells centred on the 2^16 grid points, at the singular angle 1.0, facing
        # it (where a difference of two primitives used to lose 1e-7) and elsewhere
        mu = DiskMeasure.from_json(self.MIXED)
        n = 2 ** 16
        h = mu.ac.grid_density(n)
        mpmath.mp.dps = 30
        t0 = mpmath.mpf(1.0) / (2 * mpmath.pi)  # in turns
        near = round(1.0 / (2 * np.pi) * n)
        for k in (near - 1, near, near + 1, near + n // 2, (near + n // 2 + 1) % n, 100, 20000):
            lo, hi = (mpmath.mpf(k) - 0.5) / n, (mpmath.mpf(k) + 0.5) / n
            pts = [lo, t0, hi] if lo < t0 < hi else [lo, hi]
            exact = 1.2 * n * mpmath.quad(
                lambda u: abs(2 * mpmath.sin(mpmath.pi * (u - t0))) ** -0.5 if u != t0 else 0, pts)
            assert h[k] == pytest.approx(float(exact), rel=1e-11)


    @pytest.mark.parametrize("variant", ["hb", "cauchy"])
    @pytest.mark.parametrize("density", ["mixed-power", "grid-1000"])
    def test_folded_inverse_fft_on_probe_subsets(self, half_sum, density, variant):
        # every stride of the 64 level-12 probes down to a single one; on the 1000-point
        # grid the probes of one sub-grid offset share little or no stride
        if density == "mixed-power":
            weight = DiskMeasure.from_json(self.MIXED).ac
        else:
            weight = GridArcWeight(np.random.default_rng(1000).uniform(0.1, 2.0, 1000))
        h = weight.grid_density()
        mu = DiskMeasure(ac=weight)
        lams = log_radial_points(12)[-1][1]
        for stride in range(1, 65):
            for sub in (lams[::stride], lams[stride - 1 :: stride]):
                got = _kernel_mu_norms_squared(half_sum, mu, sub, variant)
                expect = self._plain_grid_sums(half_sum, h, sub, variant)
                np.testing.assert_allclose(got, expect, rtol=1e-11, atol=0.0)

    @pytest.fixture(scope="class")
    def outer_pair(self):
        modulus = lambda t: 0.9 * np.exp(-0.4 * (1 - np.cos(t - 1)))
        return pythagorean_mate(SymbolB.from_outer_modulus(modulus))

    @staticmethod
    def _pointwise_level_maxima(pair, mu, depth, variant):
        # the ratios with b and a evaluated at each probe point by their Taylor sums
        out = []
        for j, lams in log_radial_points(depth):
            bvals = pair.b.fn(lams)
            gap = 1.0 - np.abs(lams) ** 2
            if variant == "hb":
                b_sq = (1.0 - np.abs(bvals) ** 2) / gap
            else:
                b_sq = (1.0 + np.abs(bvals / pair.a(lams)) ** 2) / gap
            out.append(np.max(np.sqrt(b_sq / _kernel_mu_norms_squared(pair, mu, lams, variant))))
        return out

    @pytest.mark.parametrize("variant", ["hb", "cauchy"])
    def test_outer_route_scan_sums_no_taylor_series_at_a_probe(self, outer_pair, variant,
                                                                monkeypatch):
        from hbspace import functions

        mu = DiskMeasure.from_json({"ac_density": self.MIXED["ac_density"]})
        assert isinstance(outer_pair.b.fn, functions.GridOuter)
        assert isinstance(outer_pair.a, functions.GridOuter)
        expect = self._pointwise_level_maxima(outer_pair, mu, 12, variant)

        def refuse(*args, **kwargs):
            raise AssertionError("a Taylor series was summed at a point")

        with monkeypatch.context() as m:
            m.setattr(functions, "polyval_ascending", refuse)
            m.setattr(functions.GridOuter, "__call__", refuse)
            scan = kernel_ratio_scan(outer_pair, mu, depth=12, variant=variant)
        np.testing.assert_allclose(scan.per_level_max, expect, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("variant", ["hb", "cauchy"])
    def test_rational_scan_evaluates_b_once_per_level(self, variant, monkeypatch):
        from hbspace.functions import RationalFn

        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        sizes = []
        call = RationalFn.__call__

        def counting(fn, z):
            if fn is pair.b.fn:
                sizes.append(np.size(z))
            return call(fn, z)

        monkeypatch.setattr(RationalFn, "__call__", counting)
        kernel_ratio_scan(pair, DiskMeasure.lebesgue(), depth=12, variant=variant)
        # the hb grid sum also takes b once on the 2^16-point grid
        grid = [2 ** 16] if variant == "hb" else []
        assert sorted(sizes) == sorted(grid + [lams.size for _, lams in log_radial_points(12)])


class TestReverseVerdict:
    def test_pass_case_all_conditions_agree(self, alpha_pair, inv_gap_measure):
        rep = reverse_carleson_verdict(alpha_pair, inv_gap_measure, depth=10,
                                       kernel_depth=8)
        assert rep.overall == "reverse-carleson"
        for key in ("MainThm.2", "MainThm.3", "MainThm.4"):
            assert rep.conditions[key].verdict == "pass"
        assert rep.constants["ess_inf"] == pytest.approx(1.0, abs=1e-9)

    def test_symbol_level_failure(self, half_sum):
        rep = reverse_carleson_verdict(half_sum, DiskMeasure.lebesgue(), depth=10,
                                       kernel_depth=8)
        assert rep.overall == "not-reverse-carleson"
        assert rep.conditions["Sarason.L1gap"].verdict == "fail"
        assert "integrable" in rep.diagnostics["symbol_certificate"]

    def test_killed_arc_fails_with_kernel_witness(self, alpha_pair):
        n = 2 ** 13
        t = grid_angles(n)
        gap2 = alpha_pair.gap2_grid(n)
        h = np.where((t > 3 * np.pi / 4) & (t < 5 * np.pi / 4), 0.0,
                     1.0 / np.maximum(gap2, 1e-300))
        h[gap2 == 0] = 0.0
        mu = DiskMeasure.from_density_grid(h)
        rep = reverse_carleson_verdict(alpha_pair, mu, depth=10, kernel_depth=12)
        assert rep.overall == "not-reverse-carleson"
        assert rep.conditions["MainThm.4"].value == 0.0
        assert rep.constants["kernel_ratio_max"] > 10

    def test_weighting_coherence(self, alpha_pair, inv_gap_measure):
        # positive essential infimum forces a stabilizing positive window infimum
        rep = reverse_carleson_verdict(alpha_pair, inv_gap_measure, depth=10,
                                       kernel_depth=6)
        assert rep.conditions["MainThm.4"].verdict == "pass"
        assert rep.conditions["MainThm.3"].verdict == "pass"
        assert rep.constants["reverse_window_inf"] >= 0.99

    def test_kernel_thesis_direction(self, alpha_pair, inv_gap_measure):
        # whenever the verdict passes, the kernel ratio maxima are finite/stable
        scan = kernel_ratio_scan(alpha_pair, inv_gap_measure, depth=10)
        assert np.isfinite(scan.max_ratio)
        assert scan.stabilized()

    @pytest.mark.parametrize("t0", [0.0, 1.0])
    def test_vanishing_density_fails_wherever_its_zero_sits(self, t0):
        # h = |1 - e^(i(t - t0))|^2 vanishes at t0 and (1 - |b|^2) = 3/4: every
        # condition fails, whether the zero sits on a grid point or off it
        pair = pythagorean_mate(SymbolB.rational([0.0, 0.5]))
        rep = reverse_carleson_verdict(pair, DiskMeasure.boundary_power(-2.0, 1.0, t0),
                                       depth=10, kernel_depth=8)
        assert rep.conditions["MainThm.4"].verdict == "fail"
        assert rep.overall == "not-reverse-carleson"
        assert _report_exit(rep)[0] == 0

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.0, 4.0])
    def test_rotated_half_sum_fails_essential_infimum_at_every_angle(self, theta):
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5 * np.exp(-1j * theta)]))
        rep = reverse_carleson_verdict(pair, DiskMeasure.lebesgue(), depth=10, kernel_depth=8)
        assert rep.conditions["MainThm.4"].verdict == "fail"
        assert "equivalence_violation" not in rep.diagnostics

    def test_essential_infimum_builds_no_pyramid(self, alpha_pair, inv_gap_measure, monkeypatch):
        # it reads the cells of (1 - |b|^2) h from the pyramid that the window
        # scan of the same weight has built
        scans, built = [], []
        levels, ess_scan = ArcWeight._levels, analyzers._ess_inf_scan

        def counting(self, level):
            if self._pyramid is None or len(self._pyramid) <= level:
                built.append(level)
            return levels(self, level)

        def scan(ac, last):
            before = len(built)
            result = ess_scan(ac, last)
            scans.append((last, built[before:]))
            return result

        monkeypatch.setattr(ArcWeight, "_levels", counting)
        monkeypatch.setattr(analyzers, "_ess_inf_scan", scan)
        reverse_carleson_verdict(alpha_pair, inv_gap_measure, depth=10, kernel_depth=6)
        assert scans == [(10, [])]

    @pytest.mark.parametrize("make", [
        DiskMeasure.lebesgue,
        lambda: DiskMeasure.boundary_power(0.5, 1.3, 1.0).plus(DiskMeasure.point_mass(0.5j, 0.2)),
    ], ids=["lebesgue", "power-and-atom"])
    def test_default_depth_verdict_builds_each_weight_once(self, make, monkeypatch):
        # nu.ac for the window scans and the essential infimum, mu.ac for the kernel
        # spectra: no weight is built at a coarse level first and then again.  A fresh
        # pair, whose |a|^2 has no pyramid yet
        half_sum = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        builds = []
        levels = ArcWeight._levels

        def recording(self, level):
            before = self._pyramid
            out = levels(self, level)
            if out is not before:
                builds.append((self, len(out) - 1))
            return out

        measure = make()
        monkeypatch.setattr(ArcWeight, "_levels", recording)
        reverse_carleson_verdict(half_sum, measure)
        # the weights are held in `builds`, so their ids are distinct
        assert len(builds) == len({id(w) for w, _ in builds}) == 2
        assert sorted(lv for _, lv in builds) == [15, 17]

    def test_scale_equivariance_of_verdict(self, alpha_pair, inv_gap_measure):
        rep1 = reverse_carleson_verdict(alpha_pair, inv_gap_measure, depth=8,
                                        kernel_depth=6)
        rep2 = reverse_carleson_verdict(alpha_pair, inv_gap_measure.scaled(3.7),
                                        depth=8, kernel_depth=6)
        assert rep1.overall == rep2.overall
        assert rep2.constants["ess_inf"] == pytest.approx(
            3.7 * rep1.constants["ess_inf"], rel=1e-9
        )


class TestDirectVerdict:
    def test_halfsum_radial_dichotomy(self, half_sum):
        rep = direct_carleson_verdict(half_sum, DiskMeasure.radial_power(0.5), depth=12)
        assert rep.overall == "carleson-for-hb"
        assert rep.conditions["H2Window.mu"].verdict == "fail"
        assert rep.conditions["CorRationnel.nu"].verdict == "pass"
        assert rep.diagnostics["falpha_certificate"]["boundary_root_count"] == 1

    def test_trivial_symbol_reduces_to_h2_test(self):
        pair = pythagorean_mate(SymbolB.rational([0.0]))
        mu = DiskMeasure.lebesgue().plus(DiskMeasure.point_mass(0.3, 0.5))
        rep = direct_carleson_verdict(pair, mu, depth=10)
        assert rep.overall == "carleson-for-hb"
        assert rep.conditions["H2Window.mu"].verdict == "pass"

    def test_atom_at_mate_zero_is_killed(self, half_sum):
        mu = DiskMeasure.point_mass(np.exp(0j), 1.0).plus(DiskMeasure.lebesgue())
        rep = direct_carleson_verdict(half_sum, mu, depth=10)
        # the weighted measure drops the atom since |a(1)| = 0
        assert rep.overall == "carleson-for-hb"

    def test_nonrational_is_labelled_heuristic(self, alpha_pair):
        rep = direct_carleson_verdict(alpha_pair, DiskMeasure.lebesgue(), depth=8)
        assert rep.overall.startswith("heuristic-")
        assert "heuristic" in rep.diagnostics

    def test_nu_of_the_double_zero_mate_against_mpmath(self):
        # b = (1+z)/2 * p with |p|^2 = (3 - cos t)/2 gives 1 - |b|^2 = |1 - z|^4 / 16;
        # nu = |a|^2 dm, as this verdict weights Lebesgue measure, keeps its relative
        # accuracy on arcs starting at the double zero of a
        p = [np.sqrt((1.5 + np.sqrt(2)) / 2), -np.sqrt((1.5 - np.sqrt(2)) / 2)]
        double = np.polynomial.polynomial.polymul([0.5, 0.5], p)
        pair = pythagorean_mate(SymbolB.rational(list(double)))
        nu = DiskMeasure.lebesgue().weighted(
            _gap_weight(pair, pair.a, lambda z: np.abs(np.asarray(pair.a(z))) ** 2))
        with mpmath.workdps(40):
            for level in (14, 18, 22):
                length = 2.0**-level
                exact = mpmath.quad(lambda t: abs(1 - mpmath.expj(t)) ** 4 / 16,
                                    [0, 2 * mpmath.pi * length]) / (2 * mpmath.pi)
                mass = nu.window_mass((0.0, length))
                assert mass == pytest.approx(float(exact), rel=1e-13, abs=0)


class TestRayUnderOuterSymbol:
    """A radial ray reaches past |z| = 1 - 1e-9, where a grid outer is not summed."""

    @pytest.fixture(scope="class")
    def outer_pair(self):
        modulus = lambda t: 0.9 * np.exp(-0.4 * (1 - np.cos(t - 1)))
        return pythagorean_mate(SymbolB.from_outer_modulus(modulus))

    def test_both_verdicts_return(self, outer_pair):
        # |a|^2 >= 0.19 on the circle, so H(b) = H^2 with equivalent norms: the
        # ray, not Carleson for H^2, is not Carleson for H(b); carrying no
        # boundary mass, it is not reverse Carleson either
        mu = DiskMeasure(radial=[RadialPower(2.0, 0.5, 1.0)])
        direct = direct_carleson_verdict(outer_pair, mu, depth=8)
        assert direct.overall == "heuristic-not-carleson-for-hb"
        assert direct.conditions["CorRationnel.nu"].verdict == "fail"
        reverse = reverse_carleson_verdict(outer_pair, mu, depth=8, kernel_depth=1)
        assert reverse.overall == "not-reverse-carleson"
        assert np.isfinite(reverse.constants["kernel_ratio_max"])

    def test_ray_window_masses_against_quadrature(self, outer_pair):
        pair = outer_pair
        weights = (
            _gap_weight(pair, pair.a, lambda z: np.abs(pair.a(z)) ** 2),
            _gap_weight(pair, pair.b.fn, lambda z: 1.0 - np.abs(pair.b.fn(z)) ** 2),
        )
        boundary = float(pair.gap2_fn(2.0))
        for weight in weights:
            nu = DiskMeasure(radial=[RadialPower(2.0, 0.5, 1.0)]).weighted(weight)
            for depth in (0.3, 2.0 ** -10, 2.0 ** -15, 2.0 ** -20):
                got = nu.window_mass(ArcWindow(2.0, 2 * depth))
                assert got == pytest.approx(quadrature_depth_mass(nu.radial[0], depth),
                                            rel=1e-10)
            # wholly past the interior limit the weight is its boundary value
            depth = 2.0 ** -32
            got = nu.window_mass(ArcWindow(2.0, 2 * depth))
            assert got == pytest.approx(boundary * 2 * np.sqrt(depth), rel=1e-14)


class TestNormEquivalence:
    def test_alpha_example_passes(self, alpha_pair, inv_gap_measure):
        mu = inv_gap_measure.plus(DiskMeasure.point_mass(0.3, 1.0))
        rep = norm_equivalence_verdict(alpha_pair, mu, depth=10)
        assert rep.overall == "equivalent-norm"

    def test_halfsum_with_lebesgue_fails_on_window_inf(self, half_sum):
        rep = norm_equivalence_verdict(half_sum, DiskMeasure.lebesgue(), depth=10)
        assert rep.overall == "not-equivalent"
        assert rep.conditions["EquivNorm.window_inf"].verdict == "fail"

    def test_a2_verdict_independent_of_zero_position(self, half_sum):
        # rotating b = (1 + z)/2 moves the zero of a = (1 - z)/2 off every dyadic grid point
        phase = np.exp(2j * np.pi * 0.3 / 2**14)
        rotated = pythagorean_mate(SymbolB.rational([0.5, 0.5 * phase]))
        base = norm_equivalence_verdict(half_sum, DiskMeasure.lebesgue(), depth=10)
        rep = norm_equivalence_verdict(rotated, DiskMeasure.lebesgue(), depth=10)
        for r in (base, rep):
            assert r.conditions["EquivNorm.a2"].verdict == "fail"
            assert r.conditions["EquivNorm.a2"].evidence["infinite_witnesses"]
        assert rep.overall == base.overall
        assert (rep.conditions["EquivNorm.window_inf"].verdict
                == base.conditions["EquivNorm.window_inf"].verdict)

    def test_a2_fails_at_double_and_at_two_boundary_zeros(self):
        # b = (1+z)/2 * p with |p|^2 = (3 - cos t)/2 gives 1 - |b|^2 = |1 - z|^4 / 16;
        # b = (1 + z^2)/2 gives 1 - |b|^2 = |1 - z^2|^2 / 4, zeros of a at 1 and -1
        p = [np.sqrt((1.5 + np.sqrt(2)) / 2), -np.sqrt((1.5 - np.sqrt(2)) / 2)]
        double = np.polynomial.polynomial.polymul([0.5, 0.5], p)
        for coeffs, zeros in ((double, [0.0]), ([0.5, 0.0, 0.5], [0.0, 0.5])):
            pair = pythagorean_mate(SymbolB.rational(list(coeffs)))
            rep = norm_equivalence_verdict(pair, DiskMeasure.lebesgue(), depth=10)
            a2 = rep.conditions["EquivNorm.a2"]
            assert a2.verdict == "fail"
            short = [w for w in a2.evidence["infinite_witnesses"] if w["length"] <= 2.0**-10]
            for zero in zeros:
                assert any((zero - w["start"]) % 1.0 <= w["length"] for w in short)

    def test_a2_of_a_grid_outer_mate_whose_zero_is_a_grid_point(self, alpha_pair):
        # the mate of the alpha pair's b, built back from |b|, is a grid outer vanishing
        # at angle 0; its A2 product matches that of the closed-form mate
        pair = pythagorean_mate(alpha_pair.b)
        assert isinstance(pair.a, GridOuter)
        rep = norm_equivalence_verdict(pair, DiskMeasure.lebesgue(), depth=10)
        closed = norm_equivalence_verdict(alpha_pair, DiskMeasure.lebesgue(), depth=10)
        assert rep.conditions["EquivNorm.a2"].verdict == "pass"
        assert rep.constants["a2_sup"] == pytest.approx(closed.constants["a2_sup"], abs=1e-3)

    def test_a2_witnesses_are_the_shortest_infinite_arcs(self, half_sum):
        # every infinite arc at a zero of a is listed at the finest scanned length,
        # with no complement; the rotated zero sits off every dyadic point
        u = 0.3137
        rotated = pythagorean_mate(SymbolB.rational([0.5, 0.5 * np.exp(-2j * np.pi * u)]))
        depth = 10
        for pair, zero in ((half_sum, 0.0), (rotated, u)):
            rep = norm_equivalence_verdict(pair, DiskMeasure.lebesgue(), depth=depth)
            a2 = rep.conditions["EquivNorm.a2"]
            assert a2.verdict == "fail"
            witnesses = a2.evidence["infinite_witnesses"]
            assert witnesses
            assert all(w["level"] == depth and w["length"] == 2.0**-depth for w in witnesses)
            assert any((zero - w["start"]) % 1.0 <= w["length"] for w in witnesses)

    def test_window_scans_build_each_nu_pyramid_once(self, monkeypatch):
        # reverse_inf_scan and carleson_sup_scan read the same nu: the second scan
        # must find its cells already integrated.  A fresh pair, whose |a|^2 has no
        # pyramid yet
        half_sum = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        builds = []
        levels = ArcWeight._levels

        def recording(self, level):
            before = self._pyramid
            out = levels(self, level)
            if out is not before:
                builds.append((type(self).__name__, len(out) - 1))
            return out

        monkeypatch.setattr(ArcWeight, "_levels", recording)
        depth = 11
        norm_equivalence_verdict(half_sum, DiskMeasure.lebesgue(), depth=depth)
        # |a|^2 and its reciprocal for the A2 scan, one build each; nu.ac is Lebesgue
        # measure times |a|^2, that is |a|^2 itself, so the window scans read its pyramid
        assert [lv for name, lv in builds if name == "FactoredArcWeight"] == [depth + 1] * 2

    def test_corona_failure_blocks(self):
        from hbspace.scenarios import build

        sc = build("blaschke-corona")
        rep = norm_equivalence_verdict(sc.pair, DiskMeasure.lebesgue(), depth=10)
        assert rep.overall == "not-equivalent"
        assert rep.conditions["EquivNorm.corona"].verdict == "fail"


class TestIsometry:
    def test_alpha_certificate(self, alpha_pair):
        cert = isometry_refutation(alpha_pair)
        assert cert["kind"] == "certificate"
        assert cert["index"] <= 16
        assert cert["coefficient_magnitude_squared"] > 1e-10

    def test_constant_branch(self):
        pair = pythagorean_mate(SymbolB.constant(0.5))
        cert = isometry_refutation(pair)
        assert cert["kind"] == "constant-symbol"
        assert cert["measure_scale"] == pytest.approx(1.0 / 0.75)

    def test_zero_symbol_gives_lebesgue(self):
        pair = pythagorean_mate(SymbolB.rational([0.0]))
        cert = isometry_refutation(pair)
        assert cert["kind"] == "constant-symbol"
        assert cert["measure_scale"] == pytest.approx(1.0)

    def test_requires_h2(self, half_sum):
        with pytest.raises(UnsupportedError):
            isometry_refutation(half_sum)


class TestSampling:
    def test_boundary_sequence_fails(self, alpha_pair):
        rep = sampling_refutation(alpha_pair, [1 - 2.0 ** (-n) for n in range(1, 9)],
                                  depth=8)
        assert rep.overall == "not-reverse-carleson"
        assert rep.constants["ess_inf"] == 0.0
        assert rep.kind == "sampling-refutation"

    def test_interior_sequence_for_h2(self):
        pair = pythagorean_mate(SymbolB.rational([0.0]))
        rep = sampling_refutation(pair, [0.1, 0.2 + 0.1j, -0.3], depth=6)
        assert rep.overall == "not-reverse-carleson"

    def test_random_interior_sequence(self, alpha_pair):
        rng = np.random.default_rng(4)
        pts = 0.8 * rng.uniform(0.1, 1, 6) * np.exp(2j * np.pi * rng.uniform(0, 1, 6))
        rep = sampling_refutation(alpha_pair, pts, depth=6)
        assert rep.overall == "not-reverse-carleson"


class TestFeasibility:
    def test_open_case_reported_as_open(self):
        # extreme, not inner, with the necessary integral finite: |b| = 1 on
        # (part of) the upper half circle and 1/2 elsewhere
        def modulus(t):
            t = np.asarray(t, dtype=float) % (2 * np.pi)
            upper = (t > 0.1) & (t < np.pi - 0.1)
            return np.where(upper, 1.0, 0.5)

        b = SymbolB.modulus_only(modulus)
        from hbspace.space import classify_extremeness

        ext = classify_extremeness(b)
        assert ext.verdict == "extreme"
        out = symbol_reverse_feasibility(b, ext)
        assert out["feasible"] == "open"

    def test_inner_is_out_of_scope(self):
        b = SymbolB.rational([0.0, 1.0])
        from hbspace.space import classify_extremeness

        out = symbol_reverse_feasibility(b, classify_extremeness(b))
        assert out["feasible"] == "out-of-scope"


class TestPoissonSquareLimit:
    def test_constant(self):
        table = poisson_square_limit_check(polynomial_fn([0.5j]), 1.0, [0.5, 0.9])
        for row in table["rows"]:
            assert row["value"] == pytest.approx(0.25, abs=1e-12)

    def test_monomial_exact_values(self):
        # integral of |r xi|^2 P_(r zeta)(xi) dm = r^2 exactly; convergence to
        # |q(zeta)|^2 = 1 at speed 1 - r^2
        table = poisson_square_limit_check(polynomial_fn([0.0, 1.0]), 0.0,
                                           [0.9, 0.99, 0.999, 0.9995])
        for row in table["rows"]:
            assert row["value"] == pytest.approx(row["r"] ** 2, rel=1e-9)
        assert table["rows"][-1]["error"] < 1e-3

    def test_halfsum_symbol_at_i(self):
        q = polynomial_fn([0.5, 0.5])
        table = poisson_square_limit_check(q, np.pi / 2, [0.99, 0.999])
        assert table["target"] == pytest.approx(0.5)
        assert table["rows"][-1]["value"] == pytest.approx(0.5, abs=2e-3)


class TestReportShape:
    def test_report_json_round_trip(self, half_sum):
        import json

        rep = direct_carleson_verdict(half_sum, DiskMeasure.radial_power(0.5), depth=8)
        text = json.dumps(rep.to_json(), sort_keys=True)
        doc = json.loads(text)
        assert "conditions" in doc and "constants" in doc and "witnesses" in doc

    def test_scan_csv_columns(self):
        scan = carleson_sup_scan(DiskMeasure.lebesgue(), depth=5, collect_table=True)
        lines = scan.table_csv().strip().splitlines()
        assert lines[0] == "level,arc_center,arc_length,value"
        assert len(lines) > 50


class TestSpecificSymbolCertificates:
    def test_one_minus_z_over_two_never_reverse(self):
        # the mirrored coefficients give the same non-integrable gap at z = -1
        pair = pythagorean_mate(SymbolB.rational([0.5, -0.5]))
        rep = reverse_carleson_verdict(pair, DiskMeasure.lebesgue(), depth=8,
                                       kernel_depth=6)
        assert rep.overall == "not-reverse-carleson"
        assert rep.conditions["Sarason.L1gap"].verdict == "fail"

    def test_poisson_resolution_cap(self):
        from hbspace.errors import ResolutionError
        from hbspace.functions import polynomial_fn

        with pytest.raises(ResolutionError):
            poisson_square_limit_check(polynomial_fn([0.0, 1.0]), 0.0, [1 - 1e-6],
                                       max_size=2 ** 14)
