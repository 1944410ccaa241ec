import json

import numpy as np
import pytest

from hbspace.analyzers import a2_product
from hbspace.errors import DomainError
from hbspace import scenarios
from hbspace.functions import outer_from_log_modulus
from hbspace.measures import PiecewiseBoundaryWeight
from hbspace.scenarios import (
    build,
    catalog,
    kappa_mass_growth,
    oscillating_modulus,
    run_all,
    run_scenario,
)
from hbspace.space import pair_from_outer_a


class TestCatalog:
    def test_catalog_names(self):
        assert set(catalog()) == {
            "half-sum",
            "alpha-power",
            "blaschke-corona",
            "oscillating-a2",
            "gauss-extreme",
            "mu-beta",
            "boundary-beta",
            "reverse-canonical",
        }

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            build("no-such-scenario")

    def test_out_of_range_parameters(self):
        with pytest.raises(DomainError):
            build("mu-beta", {"beta": 1.0})
        with pytest.raises(DomainError):
            build("alpha-power", {"alpha": 0.5})
        with pytest.raises(DomainError):
            build("oscillating-a2", {"rate": 2.5})


class TestOscillatingWeight:
    def test_plateau_values_exact(self):
        u, betas, k_arcs = oscillating_modulus(1.2, 8)
        # interior points of the two plateau families take exactly the values
        # 1/2 and beta_n
        for n in (3, 5, 8):
            i_mid = (2.0 ** (-2 * n - 1) + 2.0 ** (-2 * n)) / 2.0
            j_mid = (2.0 ** (-2 * n) + 2.0 ** (-2 * n + 1)) / 2.0
            assert u.values(np.array([i_mid]))[0] == betas[n]
            assert u.values(np.array([j_mid]))[0] == 0.5
            # symmetric copies
            assert u.values(np.array([2 * np.pi - i_mid]))[0] == betas[n]

    def test_the_pair_is_the_one_of_its_outer_mate(self):
        b = build("oscillating-a2").pair.b
        u, _, _ = oscillating_modulus(1.2, 8)
        declared = pair_from_outer_a(outer_from_log_modulus(u.values)).b
        assert b.gap_log_fn is not None
        assert np.array_equal(b.fn.one_sided, declared.fn.one_sided)

    def test_summability_precheck(self):
        # a rate too shallow for the reciprocal series must be rejected
        with pytest.raises(DomainError):
            oscillating_modulus(2.1, 8)

    def test_kn_products_track_reciprocal_betas(self):
        u, betas, k_arcs = oscillating_modulus(1.2, 8)
        products = {n: a2_product(u, k_arcs[n]) for n in range(3, 9)}
        for n in range(3, 8):
            growth = products[n + 1] / products[n]
            predicted = betas[n] / betas[n + 1]
            assert abs(growth / predicted - 1.0) <= 0.25


class TestScenarioRuns:
    def test_run_all_meets_expectations(self):
        result = run_all(depth=10)
        assert result["all_ok"], [
            (r["name"], [c for c in r["checks"] if not c["ok"]])
            for r in result["scenarios"]
            if not r["ok"]
        ]

    def test_gauss_extreme_scenario(self):
        res = run_scenario(build("gauss-extreme"), depth=8)
        by_name = {c["analyzer"]: c for c in res["checks"]}
        assert by_name["extremeness"]["actual"] == "extreme"
        assert by_name["reverse-feasibility"]["actual"] == "no"
        # the whole circle minus one point carries |b| < 1
        detail = by_name["reverse-feasibility"]["detail"]
        assert detail.get("zb_measure", 1.0) > 1.0 - 1e-9

    def test_boundary_beta_growth_rate(self):
        sc = build("boundary-beta", {"alpha": 0.4, "beta": 0.6})
        slope = kappa_mass_growth(sc.pair, sc.measure)
        assert slope == pytest.approx(0.6 * np.log(2.0), rel=0.1)

    def test_determinism(self):
        a = run_scenario(build("mu-beta", {"beta": 0.5}), depth=8, seed=7)
        b = run_scenario(build("mu-beta", {"beta": 0.5}), depth=8, seed=7)
        assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
            b, sort_keys=True, default=str
        )


class TestRunnerEdges:
    def test_empty_catalog_selection(self):
        result = run_all(depth=8, names=[])
        assert result["scenarios"] == [] and result["all_ok"]

    def test_run_all_builds_each_base_once(self, monkeypatch):
        # reverse-canonical runs on alpha-power's pair and boundary-beta on
        # blaschke-corona's; the results keep the catalog's order
        builds = []
        for name, attr in (("alpha-power", "_build_alpha_power"),
                           ("blaschke-corona", "_build_blaschke_corona")):
            builder = getattr(scenarios, attr)
            counted = (lambda params, name=name, builder=builder:
                       builds.append(name) or builder(params))
            monkeypatch.setattr(scenarios, attr, counted)
            monkeypatch.setitem(scenarios.BUILDERS, name, counted)
        result = run_all(depth=6)
        assert sorted(builds) == ["alpha-power", "blaschke-corona"]
        assert [r["name"] for r in result["scenarios"]] == catalog()

    def test_a_dependent_builds_its_own_base_for_other_parameters(self):
        base = build("alpha-power")
        assert build("reverse-canonical", base=base).pair is base.pair
        assert build("reverse-canonical", {"alpha": 0.3}, base=base).pair is not base.pair

    def test_oscillating_a2_reads_its_plateau_weight_once_per_sample(self, monkeypatch):
        # the pair's gap log takes 2 log|a| and 1 - |a|^2 from one read of |a|, so the
        # extremeness ladder reads the weight once per grid (24 calls over 391,168 points
        # when it read |a| twice)
        calls = []
        values = PiecewiseBoundaryWeight.values
        monkeypatch.setattr(PiecewiseBoundaryWeight, "values",
                            lambda w, t: calls.append(np.size(t)) or values(w, t))
        build("oscillating-a2")
        assert (len(calls), sum(calls)) == (18, 326656)
