"""One conformance suite over `schedule.ENGINES`: every entry, through the
four calls the schedule loop makes (`encode`, `step`, `fidelity` and
`readout`) and nothing else, on random GHZ-diagonal weights at every n up
to its bound.  A new entry of `ENGINES` joins every test here, and every
pair of entries is checked for agreement on the n they share."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzpurify.optics import DiscriminationMode, ModeKind
from ghzpurify.purify import StepKind
from ghzpurify.schedule import ENGINES

EVEN_ONLY = DiscriminationMode.even_only()
EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd()
SIX_MODE = DiscriminationMode.six_mode_pbs()
# Readouts that misread a verdict with probability epsilon.
NOISY_EVEN_ONLY = DiscriminationMode.even_only(0.05)
NOISY_EVEN_PLUS_ODD = DiscriminationMode.even_plus_odd(0.2)
MODES = (EVEN_ONLY, EVEN_PLUS_ODD, SIX_MODE, NOISY_EVEN_ONLY, NOISY_EVEN_PLUS_ODD)

# The agreement tolerances: a keep probability, and a weight read back
# from an engine's state, as one engine reports them against another.
KEEP_TOL = 1e-12
WEIGHT_TOL = 1e-9
# `fidelity(state)` against the target weight that `readout` gives, and a
# stepped target against the target (the dense P2 leaves round-off).
FIDELITY_TOL = 1e-12
# The doubling law at epsilon > 0, on keeps and read-back weights.
DOUBLING_TOL = 1e-12

EACH_ENGINE = pytest.mark.parametrize("name", list(ENGINES))
EACH_STEP = pytest.mark.parametrize("step", list(StepKind), ids=lambda step: step.value)
SUITE = settings(max_examples=40)


def engine_property(test):
    """test(name, data) on every entry, with data drawing its inputs."""
    return EACH_ENGINE(SUITE(given(st.data())(test)))


@st.composite
def stacks(draw, max_n):
    """(n, W): the weights of 1 to 3 ensembles at one n = 2..max_n, shape
    (G, 2, 2^(n-1)), some of them exact zeros, stored C-ordered or as a
    transposed view."""
    n = draw(st.integers(2, max_n))
    rows = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1 << n, max_size=1 << n),
                         min_size=1, max_size=3))
    W = np.array(rows)
    W[:, 0] += 1e-3   # an all-zero draw is not an ensemble
    W /= W.sum(axis=1, keepdims=True)
    if draw(st.booleans()):
        return n, W.reshape(len(W), -1, 2).transpose(0, 2, 1)
    return n, W.reshape(len(W), 2, -1)


def drawn(name, data):
    """(entry, n, W, state): the entry named `name`, a stack drawn for it,
    and the state it encodes the stack as."""
    eng = ENGINES[name]
    n, W = data.draw(stacks(eng.max_qubits))
    return eng, n, W, eng.encode(W)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@EACH_STEP
@engine_property
def test_keep_is_a_probability_and_the_readout_an_ensemble(name, step, data):
    eng, n, _, state = drawn(name, data)
    for mode in MODES:
        out, keep = eng.step(state, step, mode)
        fid = eng.fidelity(out)
        for row, row_keep, row_fid in zip(out, keep, fid):
            # a keep or fidelity of exactly one that rounds past it is
            # capped at one
            assert 0.0 < row_keep <= 1.0 and row_fid <= 1.0
            ens = eng.readout(n, row)   # the ensemble's checks run here
            assert abs(row_fid - ens.W[0, 0]) <= FIDELITY_TOL


@EACH_STEP
@EACH_ENGINE
def test_target_is_a_fixed_point(name, step):
    eng = ENGINES[name]
    for n in range(2, eng.max_qubits + 1):
        target = np.zeros((2, 1 << (n - 1)))
        target[0, 0] = 1.0
        for mode in MODES:
            out, _ = eng.step(eng.encode(target), step, mode)
            assert np.abs(eng.readout(n, out).W - target).max() <= FIDELITY_TOL
            assert 1.0 - FIDELITY_TOL <= eng.fidelity(out) <= 1.0


@EACH_STEP
@engine_property
def test_six_mode_equals_even_only_bit_for_bit(name, step, data):
    eng, _, _, state = drawn(name, data)
    six, six_keep = eng.step(state, step, SIX_MODE)
    one, one_keep = eng.step(state, step, EVEN_ONLY)
    assert same_bits(six, one) and same_bits(six_keep, one_keep)


def doubling_steps(n):
    """P1 at every n; P2 at even n only, since at odd n its all-odd branch
    pairs opposite signs (the one exemption of the doubling law)."""
    return [StepKind.P1, StepKind.P2] if n % 2 == 0 else [StepKind.P1]


@engine_property
def test_even_plus_odd_doubles_the_keep_bit_for_bit(name, data):
    """The doubled keep is capped at one, as every keep is."""
    eng, n, _, state = drawn(name, data)
    for step in doubling_steps(n):
        both, both_keep = eng.step(state, step, EVEN_PLUS_ODD)
        one, one_keep = eng.step(state, step, EVEN_ONLY)
        assert same_bits(both, one)
        assert same_bits(both_keep, np.minimum(2.0 * one_keep, 1.0))


@engine_property
def test_even_plus_odd_doubles_the_keep_at_any_epsilon(name, data):
    """The law at epsilon > 0, where K(z) = q(z) + q(~z) doubles the
    even-only chance of every pair; the steps sum in another order, so it
    holds to round-off."""
    eng, n, _, state = drawn(name, data)
    eps = data.draw(st.sampled_from((0.05, 0.2, 0.45)))
    for step in doubling_steps(n):
        both, both_keep = eng.step(state, step, DiscriminationMode.even_plus_odd(eps))
        one, one_keep = eng.step(state, step, DiscriminationMode.even_only(eps))
        assert np.abs(both_keep - np.minimum(2.0 * one_keep, 1.0)).max() <= DOUBLING_TOL
        for row_both, row_one in zip(both, one):
            diff = eng.readout(n, row_both).W - eng.readout(n, row_one).W
            assert np.abs(diff).max() <= DOUBLING_TOL


@EACH_STEP
@engine_property
def test_stacked_rows_equal_single_rows_bit_for_bit(name, step, data):
    eng, _, W, state = drawn(name, data)
    for mode in MODES:
        out, keep = eng.step(state, step, mode)
        assert np.shape(keep) == (len(W),)
        for row_W, row, row_keep in zip(W, out, keep):
            single, single_keep = eng.step(eng.encode(row_W), step, mode)
            assert same_bits(row, single)
            assert row_keep == single_keep


@engine_property
def test_a_step_by_name_runs_that_step(name, data):
    eng, _, _, state = drawn(name, data)
    for step in StepKind:
        by_name, name_keep = eng.step(state, step.value, EVEN_ONLY)
        by_kind, kind_keep = eng.step(state, step, EVEN_ONLY)
        assert same_bits(by_name, by_kind) and same_bits(name_keep, kind_keep)
    with pytest.raises(ValueError):
        eng.step(state, "P3", EVEN_ONLY)


@EACH_STEP
@EACH_ENGINE
def test_six_mode_runs_at_any_epsilon_as_at_zero(name, step):
    """Six-mode PBS reads no homodyne verdict, so it runs at any epsilon as
    at epsilon = 0."""
    eng = ENGINES[name]
    n = eng.max_qubits
    state = eng.encode(np.full((2, 1 << (n - 1)), 1.0 / (1 << n)))
    six, six_keep = eng.step(state, step, DiscriminationMode(ModeKind.SIX_MODE_PBS, 0.2))
    ideal, ideal_keep = eng.step(state, step, SIX_MODE)
    assert same_bits(six, ideal) and same_bits(six_keep, ideal_keep)


@pytest.mark.parametrize("pair", list(itertools.combinations(ENGINES, 2)), ids="-".join)
@SUITE
@given(st.data())
def test_engines_agree_on_the_n_they_share(pair, data):
    first, second = (ENGINES[name] for name in pair)
    n, W = data.draw(stacks(min(first.max_qubits, second.max_qubits)))
    for step in StepKind:
        for mode in MODES:
            a, a_keep = first.step(first.encode(W), step, mode)
            b, b_keep = second.step(second.encode(W), step, mode)
            assert np.abs(a_keep - b_keep).max() <= KEEP_TOL
            for row_a, row_b in zip(a, b):
                diff = first.readout(n, row_a).W - second.readout(n, row_b).W
                assert np.abs(diff).max() <= WEIGHT_TOL
