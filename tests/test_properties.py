"""Property tests of the fast step maps and the Monte Carlo sampler on random
GHZ-diagonal ensembles, and of the dense engine on random complex density
matrices."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.exact import exact_step, ghz_diagonal_extract
from ghzpurify.ghz import (GhzDiagonalEnsemble, GhzLabel, ensemble_to_density,
                           target_label)
from ghzpurify.mc import mc_sample_step
from ghzpurify.optics import DiscriminationMode, ModeKind
from ghzpurify.purify import StepKind, apply_step
from ghz_helpers import is_valid_density

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()
SIX_MODE = DiscriminationMode.six_mode_pbs()
MODES = (EVEN_ONLY, EVEN_PLUS_ODD, SIX_MODE)

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
# Few trials keep the MC properties fast; every (n, step, mode, epsilon)
# still keeps about 75 or more of them in expectation.
MC_TRIALS = 5_000
EPSILONS = (0.0, 0.05, 0.2)
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def ensembles(draw):
    n = draw(st.integers(2, 6))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1 << n,
                                 max_size=1 << n)))
    # A few exact zeros are the common case; an all-zero draw is not an ensemble.
    raw[0] += 1e-3
    return GhzDiagonalEnsemble(n, (raw / raw.sum()).reshape(2, -1))


def pair_reference(ens, step, mode):
    """The step as a sum over label pairs, following purify's derivation:
    P1 keeps pairs with equal reps (probability 1/2 per kept branch) and
    leaves (e, s1 s2); P2 keeps pairs with s1 == s2 in the even branch and
    s1 == s2 (-1)^n in the odd one (probability 2^-(n-1) each) and leaves
    (e1 xor e2, s1)."""
    n = ens.n_qubits
    odd_kept = mode.kind is ModeKind.EVEN_PLUS_ODD
    raw = {}
    for a, wa in ens.weights.items():
        for b, wb in ens.weights.items():
            if step is StepKind.P1:
                if a.rep != b.rep:
                    continue
                mass = 0.5 * (1 + odd_kept) * wa * wb
                out = GhzLabel(a.rep, a.sign * b.sign)
            else:
                branches = (a.sign == b.sign) + (odd_kept and
                                                 a.sign == b.sign * (-1) ** n)
                mass = 2.0 ** -(n - 1) * branches * wa * wb
                out = GhzLabel(format(int(a.rep, 2) ^ int(b.rep, 2), f"0{n}b"),
                               a.sign)
            raw[out] = raw.get(out, 0.0) + mass
    keep = sum(raw.values())
    return {label: w / keep for label, w in raw.items()}, keep


@SETTINGS
@given(ensembles())
def test_steps_match_the_pair_sum(ens):
    for step in StepKind:
        for mode in MODES:
            rep = apply_step(ens, step, mode)
            want, keep = pair_reference(ens, step, mode)
            assert abs(rep.keep_probability - keep) <= 1e-12
            for label in set(want) | set(rep.output.weights):
                assert abs(rep.output.weight(label) - want.get(label, 0.0)) <= 1e-12


@SETTINGS
@given(ensembles())
def test_output_is_a_distribution_and_keep_a_probability(ens):
    for step in StepKind:
        for mode in MODES:
            rep = apply_step(ens, step, mode)
            assert abs(rep.output.W.sum() - 1.0) <= 1e-12
            assert (rep.output.W >= 0.0).all()
            assert 0.0 < rep.keep_probability <= 1.0 + 1e-12


@SETTINGS
@given(st.integers(2, 6))
def test_target_is_a_fixed_point(n):
    target = GhzDiagonalEnsemble(n, {target_label(n): 1.0})
    for step in StepKind:
        for mode in MODES:
            assert apply_step(target, step, mode).output.weights == {target_label(n): 1.0}


@SETTINGS
@given(ensembles())
def test_even_plus_odd_doubles_keep_exactly(ens):
    steps = [StepKind.P1] + ([StepKind.P2] if ens.n_qubits % 2 == 0 else [])
    for step in steps:
        one = apply_step(ens, step, EVEN_ONLY)
        both = apply_step(ens, step, EVEN_PLUS_ODD)
        assert both.keep_probability == 2.0 * one.keep_probability
        assert np.array_equal(both.output.W, one.output.W)


@SETTINGS
@given(ensembles())
def test_six_mode_output_equals_even_only(ens):
    for step in StepKind:
        six = apply_step(ens, step, SIX_MODE)
        one = apply_step(ens, step, EVEN_ONLY)
        assert six.keep_probability == one.keep_probability
        assert np.array_equal(six.output.W, one.output.W)


@SETTINGS
@given(ensembles(), SEEDS)
def test_mc_output_is_a_distribution_and_keep_a_probability(ens, seed):
    for step in StepKind:
        for kind in ModeKind:
            for eps in EPSILONS:
                rep = mc_sample_step(ens, step, DiscriminationMode(kind, eps),
                                     MC_TRIALS, seed)
                assert (rep.output.W >= 0.0).all()
                assert abs(rep.output.W.sum() - 1.0) <= 1e-12
                assert 0.0 < rep.keep_probability <= 1.0
                if eps == 0.0:
                    assert ("spurious", "*") not in rep.branch_stats


@SETTINGS
@given(ensembles(), SEEDS)
def test_mc_six_mode_draws_no_misread(ens, seed):
    noisy_six = DiscriminationMode(ModeKind.SIX_MODE_PBS, 0.2)
    for step in StepKind:
        clean = mc_sample_step(ens, step, SIX_MODE, MC_TRIALS, seed)
        noisy = mc_sample_step(ens, step, noisy_six, MC_TRIALS, seed)
        assert noisy.keep_probability == clean.keep_probability
        assert np.array_equal(noisy.output.W, clean.output.W)
        assert noisy.branch_stats == clean.branch_stats == {}


@SETTINGS
@given(st.integers(2, 6), st.sampled_from(EPSILONS), SEEDS)
def test_mc_target_stays_pure(n, eps, seed):
    target = GhzDiagonalEnsemble(n, {target_label(n): 1.0})
    for step in StepKind:
        for kind in ModeKind:
            rep = mc_sample_step(target, step, DiscriminationMode(kind, eps),
                                 MC_TRIALS, seed)
            assert rep.output.weights == {target_label(n): 1.0}


@st.composite
def densities(draw):
    """Complex density matrices at n = 2..4 of any rank, pure to full."""
    n = draw(st.integers(2, 4))
    rank = draw(st.integers(1, 1 << n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(1 << n, rank)) + 1j * rng.normal(size=(1 << n, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@SETTINGS
@given(densities())
def test_dense_output_is_a_state_and_keep_a_probability(rho):
    for step in StepKind:
        for mode in MODES:
            out, keep = exact_step(rho, step, mode)
            assert is_valid_density(out)   # Hermitian, trace one, eigenvalues >= -1e-10
            assert 0.0 < keep <= 1.0 + 1e-12


@SETTINGS
@given(densities())
def test_dense_even_plus_odd_doubles_p1_keep_exactly(rho):
    # Exact whenever rho[x, x] == rho[~x, ~x], as for every GHZ-diagonal state:
    # the odd branch then keeps the same mass as the even one.
    sym = (rho + rho[::-1, ::-1]) / 2.0
    _, one = exact_step(sym, StepKind.P1, EVEN_ONLY)
    _, both = exact_step(sym, StepKind.P1, EVEN_PLUS_ODD)
    assert both == 2.0 * one


@SETTINGS
@given(ensembles())
def test_dense_engine_matches_the_fast_engine_on_ghz_diagonal_input(ens):
    rho = ensemble_to_density(ens)
    for step in StepKind:
        for mode in MODES:
            fast = apply_step(ens, step, mode)
            out, keep = exact_step(rho, step, mode)
            extracted, residual = ghz_diagonal_extract(out)
            assert abs(keep - fast.keep_probability) <= 1e-12
            assert np.abs(extracted.W - fast.output.W).max() <= 1e-9
            assert residual <= 1e-10
