"""The self-validation checks: each fails when one engine is broken, a NaN
fails it rather than passing, and the oracle check reports the numbers of a
reference loop over the ensemble API and the fancy-index extract, its
max_deviation the worst of the weight, keep and residual deviations."""
import math

import numpy as np
import pytest

from ghzpurify import exact, validation
from ghzpurify.cli import EXIT_VALIDATION, main
from ghzpurify.ghz import ensemble_to_density, random_ghz_diagonal
from ghzpurify.optics import DiscriminationMode
from ghzpurify.purify import StepKind, apply_step, step_map
from ghz_helpers import reference_extract

EXACT_STEP = exact.exact_step


def reference_oracle_equivalence(n_max, seed, cases):
    """The oracle check with the fast side read from apply_step's checked
    ensemble and the dense side from reference_extract, folded by max; the
    reported deviation is the largest of the three."""
    rng = np.random.default_rng(seed)
    worst_diag = worst_keep = worst_res = 0.0
    modes = (DiscriminationMode.even_only(), DiscriminationMode.even_plus_odd())
    for n in range(2, n_max + 1):
        for c in range(cases):
            ens = random_ghz_diagonal(n, rng)
            rho = ensemble_to_density(ens)
            mode = modes[c % 2]
            for step in (StepKind.P1, StepKind.P2):
                fast = apply_step(ens, step, mode)
                rho_out, keep = exact.exact_step(rho, step, mode)
                out_ens, residual = reference_extract(rho_out)
                worst_diag = max(worst_diag, float(np.abs(fast.output.W - out_ens.W).max()))
                worst_keep = max(worst_keep, abs(fast.keep_probability - keep))
                worst_res = max(worst_res, residual)
    ok = worst_diag < 1e-9 and worst_keep < 1e-12 and worst_res < 1e-10
    detail = f"diag={worst_diag:.3e} keep={worst_keep:.3e} residual={worst_res:.3e}"
    return ok, max(worst_diag, worst_keep, worst_res), detail


@pytest.mark.parametrize("cases", [1, 2, 5])
@pytest.mark.parametrize("n_max", [2, 3, 4, 5])
def test_oracle_check_matches_the_reference_loop(n_max, cases):
    for seed in range(20):
        got = validation.check_oracle_equivalence(n_max, seed, cases)
        ok, worst, detail = reference_oracle_equivalence(n_max, seed, cases)
        assert got.passed is ok
        assert got.max_deviation == worst
        assert got.detail == detail


def nan_dense_step(entry=None):
    """exact_step with the output entry (row, col) set to NaN, or with a NaN
    keep probability when no entry is given."""
    def step(rho, step, mode):
        out, keep = EXACT_STEP(rho, step, mode)
        if entry is None:
            return out, math.nan
        out = out.copy()
        out[entry] = math.nan
        return out, keep
    return step


def shifted_dense_step(entry, shift):
    """exact_step with shift added to the output entry (row, col)."""
    def step(rho, step, mode):
        out, keep = EXACT_STEP(rho, step, mode)
        out = out.copy()
        out[entry] += shift
        return out, keep
    return step


NAN_FAULTS = {
    "nan-on-the-diagonal": nan_dense_step((0, 0)),
    "nan-off-the-ghz-lines": nan_dense_step((0, 1)),
    "nan-keep": nan_dense_step(),
}


class TestOracleEquivalenceFails:
    def test_perturbed_fast_map(self, monkeypatch):
        def perturbed(W, step, mode):
            W, keep = step_map(W, step, mode)
            W = W.copy()
            W[0, 0] += 1e-6
            return W / W.sum(), keep

        monkeypatch.setattr(validation, "step_map", perturbed)
        res = validation.check_oracle_equivalence(3, cases=2)
        assert not res.passed
        assert 1e-9 < res.max_deviation < 1e-5

    @pytest.mark.parametrize("entry, field", [((0, 0), "diag"), ((0, 1), "residual")])
    def test_perturbed_dense_step(self, monkeypatch, entry, field):
        monkeypatch.setattr(exact, "exact_step", shifted_dense_step(entry, 1e-6))
        res = validation.check_oracle_equivalence(3, cases=2)
        assert not res.passed
        reported = dict(part.split("=") for part in res.detail.split())
        assert float(reported[field]) > 1e-8
        assert res.max_deviation > 1e-8   # the failing part shows, whichever it is

    @pytest.mark.parametrize("fault", NAN_FAULTS.values(), ids=NAN_FAULTS.keys())
    def test_nan_in_the_dense_step(self, monkeypatch, fault):
        monkeypatch.setattr(exact, "exact_step", fault)
        res = validation.check_oracle_equivalence(3, cases=2)
        assert not res.passed
        assert "nan" in res.detail
        assert math.isnan(res.max_deviation)


@pytest.mark.parametrize("fault", NAN_FAULTS.values(), ids=NAN_FAULTS.keys())
def test_nan_fails_dense_vs_bruteforce(monkeypatch, fault):
    monkeypatch.setattr(exact, "exact_step", fault)
    res = validation.check_dense_vs_bruteforce(3)
    assert not res.passed
    assert math.isnan(res.max_deviation)


def test_a_nan_after_a_larger_deviation_still_wins():
    assert math.isnan(validation._worst(0.0, 0.5, math.nan, 0.25))
    assert math.isnan(validation._worst(math.nan, 1.0))
    assert validation._worst(0.0, 0.5, 0.25) == 0.5


@pytest.mark.parametrize("fault", NAN_FAULTS.values(), ids=NAN_FAULTS.keys())
def test_validate_exits_4_on_a_nan(monkeypatch, capsys, fault):
    monkeypatch.setattr(exact, "exact_step", fault)
    assert main(["validate", "--n-max", "3", "--cases", "2"]) == EXIT_VALIDATION
    failed = [ln.split()[:3] for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("FAIL")]
    assert [name for _, name, _ in failed] == ["oracle_equivalence", "dense_vs_bruteforce"]
    assert failed[0][2] == "max_deviation=nan"
