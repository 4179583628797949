"""Property tests of the fast step maps and the Monte Carlo sampler on random
GHZ-diagonal ensembles, and of the dense engine on random complex density
matrices."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.exact import exact_step, ghz_diagonal_extract
from ghzpurify.ghz import (MAX_QUBITS_EXACT, MAX_QUBITS_FAST, GhzDiagonalEnsemble,
                           ensemble_to_density, target_label)
from ghzpurify.mc import mc_sample_step
from ghzpurify.optics import DiscriminationMode, ModeKind
from ghzpurify.purify import StepKind, apply_step
from ghz_helpers import is_valid_density, rational_step, rational_weights

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()
SIX_MODE = DiscriminationMode.six_mode_pbs()
MODES = (EVEN_ONLY, EVEN_PLUS_ODD, SIX_MODE)

SETTINGS = settings(max_examples=60)
# Few trials keep the MC properties fast; every (n, step, mode, epsilon)
# still keeps about 75 or more of them in expectation.
MC_TRIALS = 5_000
EPSILONS = (0.0, 0.05, 0.2)
SEEDS = st.integers(0, 2 ** 32 - 1)
# The fast maps' properties run past the MC's and the pair sum's n <= 6.
FAST_MAX_N = 8
# The engine suite (test_engines.py) runs the fixed-point, doubling and
# six-mode laws up to each engine's bound, so here they are drawn past it.
PAST_FAST_BOUND = MAX_QUBITS_FAST + 1


@st.composite
def ensembles(draw, max_n=6, min_n=2):
    n = draw(st.integers(min_n, max_n))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1 << n,
                                 max_size=1 << n)))
    # A few exact zeros are the common case; an all-zero draw is not an ensemble.
    raw[0] += 1e-3
    return GhzDiagonalEnsemble(n, (raw / raw.sum()).reshape(2, -1))


@SETTINGS
@given(ensembles())
def test_steps_match_the_pair_sum(ens):
    # the label-pair rules of the rational tests, exact from the float weights
    weights = rational_weights(ens)
    for step in StepKind:
        for mode in MODES:
            rep = apply_step(ens, step, mode)
            want, keep = rational_step(weights, ens.n_qubits, step, mode)
            assert abs(rep.keep_probability - keep) <= 1e-12
            for (s, e), w in np.ndenumerate(rep.output.W):
                assert abs(w - want.get((e, 1 - 2 * s), 0.0)) <= 1e-12


@SETTINGS
@given(ensembles(FAST_MAX_N))
def test_output_is_a_distribution_and_keep_a_probability(ens):
    for step in StepKind:
        for mode in MODES:
            rep = apply_step(ens, step, mode)
            assert abs(rep.output.W.sum() - 1.0) <= 1e-12
            assert (rep.output.W >= 0.0).all()
            assert 0.0 < rep.keep_probability <= 1.0


@SETTINGS
@given(st.integers(PAST_FAST_BOUND, FAST_MAX_N))
def test_target_is_a_fixed_point(n):
    target = GhzDiagonalEnsemble(n, {target_label(n): 1.0})
    for step in StepKind:
        for mode in MODES:
            assert apply_step(target, step, mode).output.weights == {target_label(n): 1.0}


@SETTINGS
@given(ensembles(FAST_MAX_N, PAST_FAST_BOUND))
def test_even_plus_odd_doubles_keep_exactly(ens):
    steps = [StepKind.P1] + ([StepKind.P2] if ens.n_qubits % 2 == 0 else [])
    for step in steps:
        one = apply_step(ens, step, EVEN_ONLY)
        both = apply_step(ens, step, EVEN_PLUS_ODD)
        assert both.keep_probability == min(2.0 * one.keep_probability, 1.0)
        assert np.array_equal(both.output.W, one.output.W)


@SETTINGS
@given(ensembles(FAST_MAX_N, PAST_FAST_BOUND))
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
                mode = DiscriminationMode(kind, eps)
                rep = mc_sample_step(ens, step, mode, MC_TRIALS, seed)
                assert (rep.output.W >= 0.0).all()
                assert abs(rep.output.W.sum() - 1.0) <= 1e-12
                assert 0.0 < rep.keep_probability <= 1.0
                # a readout that cannot misread keeps no mismatched pair
                if mode.misclassification_probability == 0.0:
                    assert rep.branch_stats == {}


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
            assert 0.0 < keep <= 1.0


@SETTINGS
@given(densities())
def test_dense_even_plus_odd_doubles_p1_keep_exactly(rho):
    # Exact whenever rho[x, x] == rho[~x, ~x], as for every GHZ-diagonal state:
    # the odd branch then keeps the same mass as the even one.
    sym = (rho + rho[::-1, ::-1]) / 2.0
    _, one = exact_step(sym, StepKind.P1, EVEN_ONLY)
    _, both = exact_step(sym, StepKind.P1, EVEN_PLUS_ODD)
    assert both == min(2.0 * one, 1.0)


# n = 6 only: the engine suite checks the dense step against the fast one up
# to the dense entry's bound, but `exact_step` itself runs past it.
@SETTINGS
@given(ensembles(6, MAX_QUBITS_EXACT + 1))
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
