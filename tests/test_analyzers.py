import json
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hbspace import analyzers, measures
from hbspace.analyzers import (
    _gap_weight,
    _KernelNorms,
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
    window_scans,
)
from hbspace.circle import grid_angles
from hbspace.cli import _report_exit
from hbspace.errors import DegenerateMeasureError
from hbspace.functions import GridOuter, PowerOuter, polynomial_fn
from hbspace.measures import (
    ArcWeight,
    ArcWindow,
    DiskAtoms,
    DiskMeasure,
    FactoredArcWeight,
    FunctionOnDisk,
    GridArcWeight,
    PairWeight,
    PowerArcWeight,
    RadialPower,
    ScanFamily,
    SingularAtoms,
)
from hbspace.space import SymbolB, classify_extremeness, pair_from_outer_a, pythagorean_mate
from oracles import quadrature_depth_mass


def _probe_norms(norms, pair, lams):
    """A `_KernelNorms` at the probes lams, with b summed there."""
    return norms(lams, np.asarray(pair.b.fn(lams), dtype=complex))


@pytest.fixture(scope="module")
def half_sum():
    return pythagorean_mate(SymbolB.rational([0.5, 0.5]))


@pytest.fixture(scope="module")
def alpha_pair():
    return pair_from_outer_a(PowerOuter(0.25))


@pytest.fixture
def pyramid_builds(monkeypatch):
    """(weight, finest level) of every cell pyramid built while the test runs, in order.

    The list holds the weights, so their ids stay distinct.
    """
    builds = []
    levels = ArcWeight._levels

    def recording(self, level):
        before = self._pyramid
        out = levels(self, level)
        if out is not before:
            builds.append((self, len(out) - 1))
        return out

    monkeypatch.setattr(ArcWeight, "_levels", recording)
    return builds


@pytest.fixture(scope="module")
def inv_gap_measure():
    # d(mu) = (1 - |b|^2)^-1 dm for the alpha pair, as an exact power density
    c = 2.0 ** -0.25
    return DiskMeasure(ac=PowerArcWeight(-0.5, c**-2, 0.0), label="inv-gap")


class TestReverseInfScan:
    def test_lebesgue_is_one_at_every_level(self):
        scan = reverse_inf_scan(DiskMeasure.lebesgue(), depth=10)
        assert all(abs(v - 1.0) < 1e-9 for v in scan.per_level)
        assert scan.verdict() == "pass"

    def test_interior_atom_fails(self):
        scan = reverse_inf_scan(DiskMeasure.point_mass(0.5, 2.0), depth=8)
        assert scan.value == 0.0
        assert scan.verdict() == "fail"

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
        assert all(b <= a + 1e-15 for a, b in zip(scan.values, scan.values[1:]))


class TestCarlesonSupScan:
    def test_lebesgue(self):
        scan = carleson_sup_scan(DiskMeasure.lebesgue(), depth=10)
        assert scan.value == pytest.approx(1.0, abs=1e-9)
        assert abs(scan.exponent) < 0.01
        assert scan.verdict() == "pass"

    def test_radial_power_grows_at_rate_beta(self):
        scan = carleson_sup_scan(DiskMeasure.radial_power(0.5), depth=10)
        assert scan.verdict() == "fail"
        assert scan.exponent == pytest.approx(-0.5, abs=0.02)

    def test_level_maxima_nondecreasing(self):
        scan = carleson_sup_scan(DiskMeasure.radial_power(0.3), depth=10)
        assert all(b >= a - 1e-15 for a, b in zip(scan.values, scan.values[1:]))


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
        res = ess_inf_weighted(pair, measure, depth=8)
        assert all(b <= a for a, b in zip(res.per_level, res.per_level[1:]))
        w = res.witness
        ac = measure.ac.weighted(pair.gap2_weight)
        assert ac.arc_integral(w["start"] * 2 * np.pi, w["length"]) / w["length"] == pytest.approx(
            w["value"], rel=1e-12)


class TestA2Check:
    def test_constant_weight(self):
        scan = a2_check(np.ones(512), depth=8)
        assert scan.value == pytest.approx(1.0, abs=1e-9)
        assert scan.verdict() == "pass"

    def test_small_power_passes(self):
        scan = a2_check(PowerArcWeight(0.5), depth=12)
        assert scan.verdict() == "pass"
        assert not scan.infinite_witnesses

    def test_large_power_fails_with_rate(self):
        scan = a2_check(PowerArcWeight(1.5), depth=12)
        assert scan.verdict() == "fail"
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
        assert scan.verdict() == "pass"
        assert "necessary" in report.diagnostics["note"]


class TestCorona:
    def test_halfsum_infimum_is_one(self, half_sum):
        # |a| + |b| >= |a + b| = 1, attained on the real axis
        res = corona_check(half_sum, depth=12)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.verdict() == "pass"

    def test_trivial_pair(self):
        pair = pythagorean_mate(SymbolB.rational([0.0]))
        res = corona_check(pair, depth=8)
        assert res.value == pytest.approx(1.0)

    def test_blaschke_failure_tracks_zeros(self):
        from hbspace.scenarios import build

        sc = build("blaschke-corona", {"alpha": 0.4, "n_zeros": 12})
        res = corona_check(sc.pair, depth=12)
        assert res.verdict() == "fail"
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
        # the witness replays bit for bit: a2_product reads the weight's one reciprocal,
        # whose pyramid the scan built
        assert a2_product(weight, (witness["start"], witness["length"])) == witness["value"]
        return scan

    def test_a2_witness_replays_at_a_depth_other_than_its_level(self):
        # the witness arc is of level 10, and the scan's pyramids reach level 13
        weight = PowerArcWeight(0.5, 1.0, 2.0)
        scan = a2_check(weight, depth=12)
        assert scan.witness["level"] == 10
        assert scan.value == 1.4974923657769108
        assert a2_product(weight, (scan.witness["start"], scan.witness["length"])) == scan.value

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
        assert ratio == witness["value"]

    @pytest.mark.parametrize("name", ["half-sum", "blaschke-corona"])
    def test_corona_witness(self, name):
        from hbspace.scenarios import build

        pair = build(name).pair
        res = corona_check(pair, depth=10)
        z = res.witness["radius"] * np.exp(1j * res.witness["angle"])
        assert res.witness["value"] == res.value
        at = abs(complex(pair.a(z))) + abs(complex(pair.b.fn(z)))
        assert at == pytest.approx(res.witness["value"], rel=1e-12, abs=1e-12)


class TestFamilyReads:
    """A scan reads each component by lattice index, as the lone arcs would read it."""

    @staticmethod
    def edge_measure():
        # disk atoms at turns 0, 1/4 and 1/2 and a singular atom at 1/4, all lattice ends; the
        # atom at depth 0.49 is too shallow for the complements of levels 2 to 5; a ray at 1/2
        return DiskMeasure(
            disk_atoms=DiskAtoms([0.99, 0.999j, -0.995, 0.51 * np.exp(2j)], [0.7, 0.4, 0.2, 0.9]),
            ac=PowerArcWeight(-0.5, 1.2, 1.0),
            singular_atoms=SingularAtoms([np.pi / 2], [0.3]),
            radial=[RadialPower(np.pi, 0.5, 0.4)],
        )

    def test_atoms_on_lattice_ends_lie_on_half_open_arcs(self):
        atom = DiskMeasure(disk_atoms=DiskAtoms([0.9j], [1.0]))
        assert np.angle(0.9j) / (2 * np.pi) == 0.25
        assert list(atom.batch_window_masses(ScanFamily(2), 0.25)) == [0.0, 1.0, 0.0, 0.0]
        assert list(atom.batch_window_masses(ScanFamily(2, complement=True), 0.75)) == [
            1.0, 0.0, 1.0, 1.0]

    def test_each_scan_value_is_its_lone_arc(self):
        mu = self.edge_measure()
        shallow = 0
        for level, families, vals in analyzers._valued_families(mu.batch_window_masses, 10):
            for fam, fam_vals in zip(families, np.split(vals, len(families))):
                lone = [mu.batch_window_masses(np.array([fam.start(i)]), fam.length)[0]
                        for i in range(fam.size)]
                assert list(fam_vals) == lone
                shallow += fam.complement and fam.length / 2 < 0.49
        assert shallow == 8  # the complements of levels 2 to 5, aligned and shifted

    def test_lone_calls_decide_atoms_next_to_lattice_ends_as_families_do(self):
        # singular atoms on and within three ulps of the level-4 lattice points; a lone
        # call compares each with the ends of its arc, which are lattice points too
        turns = []
        for end in np.arange(16) / 16:
            for toward in (-1.0, 2.0):
                x = 1.0 if end == 0 and toward < 0 else end
                for _ in range(4):
                    turns.append(x)
                    x = np.nextafter(x, toward)
        turns = np.unique(turns)
        weights = 2.0 ** -np.arange(turns.size)
        mu = DiskMeasure(singular_atoms=SingularAtoms(2 * np.pi * turns, weights))
        for level, families, vals in analyzers._valued_families(mu.batch_window_masses, 6):
            for fam, fam_vals in zip(families, np.split(vals, len(families))):
                lone = [mu.batch_window_masses(np.array([fam.start(i)]), fam.length)[0]
                        for i in range(fam.size)]
                assert list(fam_vals) == lone
        # 1/4 - 2^-55 lies on the 3/4 turn from 1/2, which wraps past 0, though
        # 1/4 - 2^-55 - 1/2 rounds to -1/4
        atom = DiskMeasure(singular_atoms=SingularAtoms([2 * np.pi * (0.25 - 2.0 ** -55)], [1.0]))
        assert atom.batch_window_masses(np.array([0.5]), 0.75)[0] == 1.0
        assert list(atom.batch_window_masses(ScanFamily(2, complement=True), 0.75)) == [
            0.0, 1.0, 1.0, 1.0]

    def test_a_ray_takes_each_length_once(self, half_sum, monkeypatch):
        # a weighted ray, as a verdict's nu holds it: a depth-14 sup scan asks 27 lengths,
        # 2^-k from level 1 and 1 - 2^-k from level 2, each from two families
        gap = PairWeight(None, lambda z: 1.0 - np.abs(half_sum.b.fn(z)) ** 2)
        ray = RadialPower(4.5141, 0.5, 0.4153).weighted(gap)
        mu = DiskMeasure(radial=[ray])
        calls = []
        depth_mass = RadialPower._depth_mass
        monkeypatch.setattr(RadialPower, "_depth_mass",
                            lambda ray, d: calls.append(d) or depth_mass(ray, d))
        carleson_sup_scan(mu, depth=14)
        assert len(calls) == 27 == len(set(calls))
        # the same bits as a fresh ray for every arc
        monkeypatch.setattr(RadialPower, "_depth_mass", depth_mass)
        for level, families, vals in analyzers._valued_families(mu.batch_window_masses, 14):
            fresh = np.concatenate([
                RadialPower(ray.angle, ray.beta, ray.scale, ray.r0, ray.correction).window_mass(
                    fam, fam.length) for fam in families])
            assert np.array_equal(vals, fresh)

    def test_complements_are_summed_once_per_pyramid(self, monkeypatch):
        calls = []
        pair_complements = measures._pair_complements
        monkeypatch.setattr(measures, "_pair_complements",
                            lambda levels, m: calls.append(m) or pair_complements(levels, m))
        mu = self.edge_measure()
        reverse_inf_scan(mu, depth=10)
        assert calls == [11]
        carleson_sup_scan(mu, depth=10)  # the same pyramid keeps its complements
        assert calls == [11]
        a2_check(PowerArcWeight(0.5, 1.0, 2.0), depth=10)  # the weight and its reciprocal
        assert calls == [11, 11, 11]

    def test_complements_do_not_outlive_their_weight(self, half_sum, monkeypatch):
        refs = []
        complements = ArcWeight._complements

        def recording(self, m):
            refs.append(weakref.ref(self))
            return complements(self, m)

        monkeypatch.setattr(ArcWeight, "_complements", recording)
        mu = self.edge_measure()
        direct_carleson_verdict(half_sum, mu, depth=10)
        # mu.ac lives with mu; nu.ac, |a|^2 times it, was built by the verdict and is gone
        assert {r() for r in refs} == {mu.ac, None}


class TestKernelRatios:
    def test_isometric_case(self):
        pair = pythagorean_mate(SymbolB.rational([0.0]))
        scan = kernel_ratio_scan(pair, DiskMeasure.lebesgue(), depth=8)
        assert scan.value == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_measure_raises(self, half_sum):
        with pytest.raises(DegenerateMeasureError):
            kernel_ratio_scan(half_sum, DiskMeasure.point_mass(0.0, 0.0), depth=4)

    def test_scan_leaves_no_cycle_through_the_pair(self):
        # a density built from the pair, as the reverse-canonical scenario's is:
        # nothing the scan leaves may hold it, or the pair lives on until a full
        # garbage collection
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

    # verdicts-scan's mixed measure at seed 1, to four digits
    SCAN_MIXED = {"disk_atoms": [[0.7305, -0.2442, 0.5387], [-0.1085, 0.2651, 0.8622]],
                  "ac_density": {"power": {"beta": 0.5, "scale": 0.9092,
                                           "singularity_angle": 1.0}},
                  "singular_atoms": [[3.6984, 0.1110]],
                  "radial": [{"angle": 4.5141, "power_beta": 0.5, "scale": 0.4153}]}

    def test_scan_spectra_end_with_the_scan(self):
        # a depth-12 hb scan holds the grid density, b on its grid, the four rows in
        # one 64-bin phase layout and one sine table, about 4.4 MB, and builds one
        # level's kernel at a time: its traced peak, 5.58 MB, stays under 6 MB (10.75 MB
        # with three full complex spectra and a (3, 2^16) product per level), and the
        # pair keeps nothing of it (4.7 MB)
        import gc
        import tracemalloc

        kernel_ratio_scan(pythagorean_mate(SymbolB.rational([0.5, 0.5])),
                          DiskMeasure.from_json(self.SCAN_MIXED), depth=2)  # imports, once
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        mu = DiskMeasure.from_json(self.SCAN_MIXED)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernel_ratio_scan(pair, mu, depth=12, variant="hb")
            gc.collect()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 6e6
        assert after - before <= 2 ** 14

    def test_cauchy_variant(self, alpha_pair, inv_gap_measure):
        scan = kernel_ratio_scan(alpha_pair, inv_gap_measure, depth=8, variant="cauchy")
        assert np.isfinite(scan.value)

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
        norms = _KernelNorms(half_sum, DiskMeasure.from_json(self.MIXED), "hb")
        for j, lams in log_radial_points(12):
            if j in before:
                got = _probe_norms(norms, half_sum, lams[::8])
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
        norms = _KernelNorms(half_sum, DiskMeasure(ac=weight), variant)
        offsets = set()
        for j, lams in log_radial_points(12):
            offsets |= set(np.round((np.angle(lams) / (2 * np.pi) * h.size + 1e-9) % 1.0, 6))
            got = _probe_norms(norms, half_sum, lams)
            expect = self._plain_grid_sums(half_sum, h, lams, variant)
            np.testing.assert_allclose(got, expect, rtol=1e-11, atol=0.0)
        # the probe angles fall between the points of a 1000-point grid
        assert len(offsets) == (8 if density == "grid-1000" else 1)

    @pytest.mark.parametrize("size", [999, 255])
    def test_fft_route_on_odd_grids(self, half_sum, size):
        # an odd grid has no unmirrored bin n/2 in its half spectra
        weight = GridArcWeight(np.random.default_rng(size).uniform(0.1, 2.0, size))
        for variant in ("hb", "cauchy"):
            norms = _KernelNorms(half_sum, DiskMeasure(ac=weight), variant)
            for j, lams in log_radial_points(12):
                expect = self._plain_grid_sums(half_sum, weight.grid_density(), lams, variant)
                np.testing.assert_allclose(_probe_norms(norms, half_sum, lams), expect,
                                           rtol=1e-11, atol=0.0)

    def test_half_sum_lebesgue_kernel_norms_in_closed_form(self):
        # <b k, k> = b(lam) ||k||^2 and P[|b|^2](lam) = (1 + Re lam)/2 for b = (1 + z)/2;
        # level 12 carries the grid's own alias 2 r^n ~ 2e-7
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        mu = DiskMeasure.lebesgue()
        hb_norms, cauchy_norms = (_KernelNorms(pair, mu, variant) for variant in ("hb", "cauchy"))
        for j, lams in log_radial_points(11):
            beta2 = np.abs(pair.b.fn(lams)) ** 2
            gap = 1.0 - np.abs(lams) ** 2
            hb = (1.0 - 2.0 * beta2 + beta2 * (1.0 + lams.real) / 2.0) / gap
            np.testing.assert_allclose(_probe_norms(hb_norms, pair, lams), hb,
                                       rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(_probe_norms(cauchy_norms, pair, lams),
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

    @pytest.mark.parametrize("turn", [0.0, 100.5 / 2 ** 16])
    def test_centred_cells_at_the_singular_angle_against_mpmath(self, turn):
        # the singularity at the centre of the cell around angle 0, which wraps and is
        # integrated in two halves, and on the edge between cells 100 and 101; the
        # weight snaps its angle to that lattice point
        n = 2 ** 16
        h = PowerArcWeight(-0.5, 1.2, 2 * np.pi * turn).grid_density(n)
        mpmath.mp.dps = 30
        t0 = mpmath.mpf(turn)
        for k in (0, 1, n - 1, 100, 101, 102, n // 2):
            lo, hi = (mpmath.mpf(k) - 0.5) / n, (mpmath.mpf(k) + 0.5) / n
            c = t0 - mpmath.floor(t0 - lo)  # the image of t0 at or above lo
            pts = [lo, c, hi] if lo <= c <= hi else [lo, hi]
            exact = 1.2 * n * mpmath.quad(
                lambda u: abs(2 * mpmath.sin(mpmath.pi * (u - t0))) ** -0.5 if u != c else 0, pts)
            assert h[k] == pytest.approx(float(exact), rel=1e-11)

    @pytest.mark.parametrize("variant", ["hb", "cauchy"])
    def test_batched_component_norms_equal_the_per_lambda_rule(self, half_sum, variant):
        # atoms, a singular atom and a ray, with b read once at their nodes and the 64
        # level-12 probes summed in batches, against each component's l2 of each kernel:
        # the same operations on the same values, so the same bits
        doc = {k: v for k, v in self.MIXED.items() if k != "ac_density"}
        mu = DiskMeasure.from_json(doc)
        lams = log_radial_points(12)[-1][1]
        beta = half_sum.b.fn(lams)
        got = _KernelNorms(half_sum, mu, variant)(lams, beta)
        for lam, bl, norm in zip(lams, beta, got):
            if variant == "hb":
                interior = lambda z: ((1.0 - np.conj(bl) * half_sum.b.fn(z))
                                      / (1.0 - np.conj(lam) * z))
                boundary = lambda t: ((1.0 - np.conj(bl) * half_sum.b_at_angles(t))
                                      / (1.0 - np.conj(lam) * np.exp(1j * t)))
            else:
                interior = lambda z: 1.0 / (1.0 - np.conj(lam) * z)
                boundary = lambda t: 1.0 / (1.0 - np.conj(lam) * np.exp(1j * t))
            k = FunctionOnDisk(interior, boundary_angles=boundary)
            expect = 0.0
            for comp in mu.components():
                if comp is not mu.ac:
                    expect += comp.l2(k)
            assert norm == expect

    @pytest.mark.parametrize("density", ["mixed-power", "grid-1000"])
    def test_scan_takes_one_sine_table_per_offset_and_no_pyramid_of_mu(
            self, density, pyramid_builds, monkeypatch):
        # on the 2^16 grid every probe angle is a grid point; between the points of a
        # 1000-point grid the probes fall at 8 sub-grid offsets
        if density == "mixed-power":
            weight = DiskMeasure.from_json(self.MIXED).ac
        else:
            weight = GridArcWeight(np.random.default_rng(1000).uniform(0.1, 2.0, 1000))
        tables = []
        sine_table = analyzers._sine_table
        monkeypatch.setattr(analyzers, "_sine_table",
                            lambda n, delta: tables.append(delta) or sine_table(n, delta))
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        kernel_ratio_scan(pair, DiskMeasure(ac=weight), depth=12)
        assert len(tables) == (1 if density == "mixed-power" else 8)
        assert pyramid_builds == []

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
        norms = _KernelNorms(half_sum, DiskMeasure(ac=weight), variant)
        lams = log_radial_points(12)[-1][1]
        for stride in range(1, 65):
            for sub in (lams[::stride], lams[stride - 1 :: stride]):
                got = _probe_norms(norms, half_sum, sub)
                expect = self._plain_grid_sums(half_sum, h, sub, variant)
                np.testing.assert_allclose(got, expect, rtol=1e-11, atol=0.0)

    def test_scan_takes_only_64_point_transforms(self, half_sum, monkeypatch):
        # on the 2^16 grid every level reads one 64-bin layout: each of the four rows
        # and each level's kernel take 64-point rffts down their phases, and each level
        # one 64-point irfft of its rows
        lengths = []
        for name in ("rfft", "irfft"):
            def spy(a, n=None, axis=-1, *args, _fft=getattr(np.fft, name), **kwargs):
                lengths.append(np.shape(a)[axis] if n is None else n)
                return _fft(a, n, axis, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        kernel_ratio_scan(half_sum, DiskMeasure.lebesgue(), depth=12)
        assert lengths == [64] * (4 + 12 + 12)

    @pytest.mark.parametrize("variant", ["hb", "cauchy"])
    def test_probes_off_the_64_lattice_of_the_2_16_grid(self, half_sum, variant):
        # the level-12 probes turned by 7/16 of a grid step keep their stride of 1024
        # points and their 64-bin layout under a new sine table; turned by 5.5 steps
        # they share no stride and take one phase of 2^16 points; probes 768 points apart
        # take 256 phases of 256 bins
        weight = DiskMeasure.from_json(self.MIXED).ac
        h = weight.grid_density()
        step = 2 * np.pi / h.size
        norms = _KernelNorms(half_sum, DiskMeasure(ac=weight), variant)
        lams = log_radial_points(12)[-1][1]
        for probes in (lams * np.exp(7j / 16 * step), lams * np.exp(5.5j * step),
                       np.abs(lams[0]) * np.exp(768j * step * np.arange(64))):
            expect = self._plain_grid_sums(half_sum, h, probes, variant)
            np.testing.assert_allclose(_probe_norms(norms, half_sum, probes), expect,
                                       rtol=1e-11, atol=0.0)
        assert sorted(norms.layouts) == [1, 256, 1024]

    @pytest.fixture(scope="class")
    def outer_pair(self):
        modulus = lambda t: 0.9 * np.exp(-0.4 * (1 - np.cos(t - 1)))
        return pythagorean_mate(SymbolB.from_outer_modulus(modulus))

    @staticmethod
    def _pointwise_level_maxima(pair, mu, depth, variant):
        # the ratios with b and a evaluated at each probe point by their Taylor sums
        out = []
        norms = _KernelNorms(pair, mu, variant)
        for j, lams in log_radial_points(depth):
            bvals = pair.b.fn(lams)
            gap = 1.0 - np.abs(lams) ** 2
            if variant == "hb":
                b_sq = (1.0 - np.abs(bvals) ** 2) / gap
            else:
                b_sq = (1.0 + np.abs(bvals / pair.a(lams)) ** 2) / gap
            out.append(np.max(np.sqrt(b_sq / _probe_norms(norms, pair, lams))))
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
        np.testing.assert_allclose(scan.per_level, expect, rtol=1e-12, atol=0.0)

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
        assert np.isfinite(scan.value)
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

    def test_essential_infimum_builds_no_pyramid(self, alpha_pair, inv_gap_measure,
                                                 pyramid_builds, monkeypatch):
        # it reads the cells of (1 - |b|^2) h from the pyramid that the window
        # scan of the same weight has built
        scans = []
        ess_scan = analyzers._ess_inf_scan

        def scan(ac, last):
            before = len(pyramid_builds)
            result = ess_scan(ac, last)
            scans.append((last, pyramid_builds[before:]))
            return result

        monkeypatch.setattr(analyzers, "_ess_inf_scan", scan)
        reverse_carleson_verdict(alpha_pair, inv_gap_measure, depth=10, kernel_depth=6)
        assert scans == [(10, [])]

    @pytest.mark.parametrize("make", [
        DiskMeasure.lebesgue,
        lambda: DiskMeasure.boundary_power(0.5, 1.3, 1.0).plus(DiskMeasure.point_mass(0.5j, 0.2)),
    ], ids=["lebesgue", "power-and-atom"])
    def test_default_depth_verdict_builds_each_weight_once(self, make, pyramid_builds):
        # nu.ac for the window scans and the essential infimum; the kernel spectra
        # integrate the centred cells of mu.ac directly and build no pyramid.  No weight
        # is built at a coarse level first and then again.  A fresh pair, whose |a|^2
        # has no pyramid yet
        half_sum = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        reverse_carleson_verdict(half_sum, make())
        assert len(pyramid_builds) == len({id(w) for w, _ in pyramid_builds}) == 1
        assert sorted(lv for _, lv in pyramid_builds) == [15]

    def test_reverse_canonical_builds_each_weight_once(self, pyramid_builds):
        # mu.ac is the pair's inverse gap weight: the kernel spectra build no pyramid of
        # it, and the Sarason total, reported first, reads level 0 of a level-10 pyramid
        from hbspace.scenarios import build

        sc = build("reverse-canonical")
        rep = reverse_carleson_verdict(sc.pair, sc.measure)
        weight = sc.pair.inverse_gap_weight
        assert len(pyramid_builds) == len({id(w) for w, _ in pyramid_builds}) == 2
        assert sorted(lv for _, lv in pyramid_builds) == [10, 15]
        assert (weight, 10) in pyramid_builds
        assert list(rep.conditions) == ["Sarason.L1gap", "MainThm.4", "MainThm.3", "MainThm.2"]
        assert rep.conditions["Sarason.L1gap"].evidence["integral"] == weight.cell_integrals(0)[0]

    def test_scale_equivariance_of_verdict(self, alpha_pair, inv_gap_measure):
        rep1 = reverse_carleson_verdict(alpha_pair, inv_gap_measure, depth=8,
                                        kernel_depth=6)
        rep2 = reverse_carleson_verdict(alpha_pair, inv_gap_measure.scaled(3.7),
                                        depth=8, kernel_depth=6)
        assert rep1.overall == rep2.overall
        assert rep2.constants["ess_inf"] == pytest.approx(
            3.7 * rep1.constants["ess_inf"], rel=1e-9
        )


class TestSarasonL1Gap:
    """Sarason's test reads the pair's (1 - |b|)^-1 weight: its poles, else its exact total."""

    @staticmethod
    def sarason(pair):
        rep = reverse_carleson_verdict(pair, DiskMeasure.lebesgue(), depth=6, kernel_depth=4)
        return rep.conditions["Sarason.L1gap"]

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.0, 2.5, 4.0])
    def test_rotated_half_sum_fails_at_every_angle(self, theta):
        # (1 - |b|)^-1 ~ (t - theta)^-2 is never integrable, wherever theta sits on a grid
        pair = pythagorean_mate(SymbolB.rational([0.5, 0.5 * np.exp(-1j * theta)]))
        condition = self.sarason(pair)
        assert condition.verdict == "fail"
        assert condition.evidence == {"feasible": "no",
                                      "certificate": "(1 - |b|)^-1 is not integrable"}

    def test_alpha_power_integral(self, alpha_pair):
        # 40-digit mpmath of the integral of (1 - |b|)^-1 dm, |a|^2 = |sin(t/2)|^(1/2)
        condition = self.sarason(alpha_pair)
        assert condition.verdict == "pass"
        assert condition.evidence["integral"] == pytest.approx(2.60831907175179699,
                                                               rel=1e-13, abs=0)

    def test_blaschke_corona_passes(self):
        from hbspace.scenarios import build

        condition = self.sarason(build("blaschke-corona").pair)
        assert condition.verdict == "pass"
        assert condition.evidence["integral"] == pytest.approx(6.51205269031590802,
                                                               rel=1e-13, abs=0)

    @pytest.mark.parametrize("num, den, integral", [
        ([0.045], [1.0, -0.95], 1.15585241224663994),
        ([0.5, 0.5], [1.0], None),
    ], ids=["pole-near-the-circle", "half-sum"])
    def test_bare_symbol_answers_as_its_pair(self, num, den, integral):
        b = SymbolB.rational(num, den)
        extremeness = classify_extremeness(b)
        out = symbol_reverse_feasibility(b, extremeness)
        assert out == self.sarason(pythagorean_mate(b, extremeness=extremeness)).evidence
        if integral is not None:
            assert out["feasible"] == "yes"
            assert out["integral"] == pytest.approx(integral, rel=1e-13, abs=0)


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

    def test_window_scans_build_each_nu_pyramid_once(self, pyramid_builds):
        # reverse_inf_scan and carleson_sup_scan read the same nu: the second scan
        # must find its cells already integrated.  A fresh pair, whose |a|^2 has no
        # pyramid yet
        half_sum = pythagorean_mate(SymbolB.rational([0.5, 0.5]))
        depth = 11
        norm_equivalence_verdict(half_sum, DiskMeasure.lebesgue(), depth=depth)
        # |a|^2 and its reciprocal for the A2 scan, one build each; nu.ac is Lebesgue
        # measure times |a|^2, that is |a|^2 itself, so the window scans read its pyramid
        assert [lv for w, lv in pyramid_builds
                if type(w) is FactoredArcWeight] == [depth + 1] * 2

    def test_window_scans_value_each_arc_once(self, half_sum, monkeypatch):
        # one valuation feeds both extremes, with the values and witnesses of the two
        # scans run apart
        mu = DiskMeasure.boundary_power(0.5, 1.3, 1.0).plus(DiskMeasure.point_mass(0.5j, 0.2))
        nu = mu.weighted(_gap_weight(half_sum, half_sum.a,
                                     lambda z: np.abs(np.asarray(half_sum.a(z))) ** 2))
        calls = []
        batch = DiskMeasure.batch_window_masses
        monkeypatch.setattr(DiskMeasure, "batch_window_masses",
                            lambda self, *args: calls.append(1) or batch(self, *args))
        lo, hi = window_scans(nu, depth=8)
        both = len(calls)
        assert json.dumps(lo.to_json()) == json.dumps(reverse_inf_scan(nu, depth=8).to_json())
        assert len(calls) == 2 * both
        assert json.dumps(hi.to_json()) == json.dumps(carleson_sup_scan(nu, depth=8).to_json())

    def test_corona_failure_blocks(self):
        from hbspace.scenarios import build

        sc = build("blaschke-corona")
        rep = norm_equivalence_verdict(sc.pair, DiskMeasure.lebesgue(), depth=10)
        assert rep.overall == "not-equivalent"
        assert rep.conditions["EquivNorm.corona"].verdict == "fail"


class TestIsometry:
    def test_alpha_certificate(self, alpha_pair):
        # c_0 does not enter: ||z||_b^2 - ||1||_b^2 = |c_1|^2 = 0.276 is the witness
        cert = isometry_refutation(alpha_pair)
        assert cert["kind"] == "certificate"
        assert cert["index"] == 1
        assert cert["coefficient_magnitude_squared"] > 1e-10
        assert cert["norm_squared_one"] == pytest.approx(1.1262125017245859, rel=1e-14)
        assert cert["norm_squared_monomial"] == pytest.approx(1.401883917215802, rel=1e-14)
        assert cert["norm_squared_monomial"] - cert["norm_squared_one"] == pytest.approx(
            cert["coefficient_magnitude_squared"], rel=1e-14)

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

    # The name predates the certificate holding without b/a in H^2; it is kept so
    # the test keeps its id.  Half-sum has c = (1, 2, 2, ...): ||1||_b^2 = 2, ||z||_b^2 = 6.
    def test_requires_h2(self, half_sum):
        cert = isometry_refutation(half_sum)
        assert cert["kind"] == "certificate"
        assert cert["index"] == 1
        assert cert["norm_squared_one"] == pytest.approx(2.0, rel=1e-14)
        assert cert["norm_squared_monomial"] == pytest.approx(6.0, rel=1e-14)

    @pytest.mark.parametrize("name", ["rotated-half-sum", "blaschke-corona"])
    def test_certificate_needs_no_h2_verdict(self, name):
        # b/a is not in H^2 for the rotated half-sum, and is for blaschke-corona
        from hbspace.scenarios import build

        if name == "rotated-half-sum":
            pair = pythagorean_mate(SymbolB.rational([0.5, 0.5 * np.exp(-1j)]))
        else:
            pair = build(name).pair
        cert = isometry_refutation(pair)
        assert cert["kind"] == "certificate"
        assert cert["index"] == 1
        assert cert["norm_squared_monomial"] > cert["norm_squared_one"] + 1e-10


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

    def test_a_symbol_near_the_circle_is_refuted(self):
        # b = (1 - 1e-7) z is non-extreme, with 1 - |b| = 1e-7 on the whole circle
        pair = pythagorean_mate(SymbolB.rational([0.0, 1.0 - 1e-7]))
        rep = sampling_refutation(pair, [0.1, 0.2 + 0.1j, -0.3], depth=6)
        assert rep.conditions["MainThm.4"].verdict == "fail"


class TestFeasibility:
    def test_open_case_reported_as_open(self):
        # extreme, not inner, with the necessary integral finite: |b| = 1 on
        # (part of) the upper half circle and 1/2 elsewhere
        def modulus(t):
            t = np.asarray(t, dtype=float) % (2 * np.pi)
            upper = (t > 0.1) & (t < np.pi - 0.1)
            return np.where(upper, 1.0, 0.5)

        b = SymbolB.modulus_only(modulus)
        ext = classify_extremeness(b)
        assert ext.verdict == "extreme"
        out = symbol_reverse_feasibility(b, ext)
        assert out["feasible"] == "open"

    def test_inner_is_out_of_scope(self):
        b = SymbolB.rational([0.0, 1.0])
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
            poisson_square_limit_check(polynomial_fn([0.0, 1.0]), 0.0, [1 - 1e-6])
