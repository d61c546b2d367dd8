"""Distribution-layer tests: pmf containers, convolution, entropy chains."""

import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from discrete_epi import dist_core
from discrete_epi.asymptotics import iid_power_pmfs
from discrete_epi.dist_core import (
    MAX_CHAIN_ROWS,
    MAX_SUM_SUPPORT,
    IntegerPmf,
    bernoulli_entropy,
    binomial_entropy_chain,
    binomial_pmf,
    convolve,
    delta_pmf,
    entropy,
    iid_sum_pmf,
    mean,
    omega,
    shift,
)
from discrete_epi.errors import (
    BudgetExceededError,
    MassConservationError,
    PrecisionMismatchError,
    QuadratureError,
    SeriesTruncationError,
)
from discrete_epi.precision import as_mpf, eps_for, working_precision

from conftest import assert_close, exact_binomial_weights, exact_value

CHAIN_PS = [Fraction(1, 20), Fraction(3, 20), Fraction(1, 3), Fraction(1, 2), Fraction(17, 20), Fraction(19, 20)]


def exact_binomial_entropy(n: int, p: Fraction) -> mpf:
    """H[Binomial(n, p)] from exact rational weights, logs at 100 digits."""
    with mpmath.workdps(100):
        weights = [mpf(w.numerator) / w.denominator for w in exact_binomial_weights(n, p)]
        return -mpmath.fsum(w * mpmath.ln(w) for w in weights if w > 0)


def exact_convolution(a: IntegerPmf, b: IntegerPmf) -> list:
    """Weights of a * b from the exact values of the mpf inputs."""
    out = []
    for k in range(a.size + b.size - 1):
        terms = [
            (wa.man_exp, b.weights[k - i].man_exp)
            for i, wa in enumerate(a.weights)
            if 0 <= k - i < b.size
        ]
        terms = [(ma * mb, ea + eb) for (ma, ea), (mb, eb) in terms if ma and mb]
        if not terms:
            out.append(Fraction(0))
            continue
        e0 = min(e for _, e in terms)
        out.append(sum(m << (e - e0) for m, e in terms) * Fraction(2) ** e0)
    return out


def assert_rounded_once(a: IntegerPmf, b: IntegerPmf) -> IntegerPmf:
    """convolve(a, b) is within 2**-prec (1 + 2**-16) of the exact weights."""
    out = convolve(a, b)
    with working_precision(a.precision):
        prec = mpmath.mp.prec
    bound = (1 + Fraction(1, 2**16)) / 2**prec
    for k, (got, want) in enumerate(zip(out.weights, exact_convolution(a, b))):
        assert abs(exact_value(got) - want) <= bound * want, f"weight {k}"
    return out


def ladder_steps(base: IntegerPmf, n: int) -> IntegerPmf:
    """n-fold sum by squaring (n a power of two), each step checked."""
    pmf = base
    while n > 1:
        pmf = assert_rounded_once(pmf, pmf)
        n //= 2
    return pmf


def ratio_pmf(raw, offset: int = 0, precision: int = 50) -> IntegerPmf:
    total = sum(raw)
    return IntegerPmf.from_weights([Fraction(r, total) for r in raw], offset, precision)


def random_pmf(rng: random.Random, size: int, precision: int = 50) -> IntegerPmf:
    raw = [rng.randint(1, 1000) for _ in range(size)]
    total = sum(raw)
    weights = [Fraction(x, total) for x in raw]
    return IntegerPmf.from_weights(weights, rng.randint(-5, 5), precision)


class TestIntegerPmf:
    def test_weights_must_sum_to_one(self, dps50):
        with pytest.raises(MassConservationError):
            IntegerPmf.from_weights(["0.5", "0.4"], 0, 50)

    def test_negative_weight_rejected(self, dps50):
        with pytest.raises(ValueError):
            IntegerPmf.from_weights(["1.5", "-0.5"], 0, 50)

    def test_support_and_items(self, dps50):
        pmf = IntegerPmf.from_weights(["0.25", "0.5", "0.25"], offset=3)
        assert list(pmf.support()) == [3, 4, 5]
        assert pmf.last == 5
        assert pmf.weight_at(4) == mpf("0.5")
        assert pmf.weight_at(99) == 0

    def test_delta(self, dps50):
        d = delta_pmf(7)
        assert d.size == 1
        assert entropy(d) == 0
        assert mean(d) == 7


class TestBernoulli:
    def test_entropy_of_fair_coin_is_ln2(self, dps50):
        assert_close(bernoulli_entropy("0.5"), mpmath.ln(2))

    def test_entropy_symmetry(self, dps50):
        for p in ("0.1", "0.23", "0.4"):
            assert_close(
                bernoulli_entropy(p), bernoulli_entropy(1 - mpf(p))
            )

    def test_entropy_endpoints_are_zero(self, dps50):
        assert bernoulli_entropy(0) == 0
        assert bernoulli_entropy(1) == 0

    def test_param_rejects_degenerate(self, dps50):
        with pytest.raises(ValueError):
            omega(0)
        with pytest.raises(ValueError):
            omega(1)

    def test_omega_values(self, dps50):
        assert omega("0.5") == 0
        assert_close(omega("0.25"), mpf(4) / 3)
        assert_close(omega("0.1"), omega("0.9"))


class TestBinomialPmf:
    def test_matches_exact_rational_weights(self, dps50):
        p = Fraction(3, 10)
        for n in (1, 2, 5, 9):
            pmf = binomial_pmf(n, p)
            expected = exact_binomial_weights(n, p)
            for k, w in pmf.items():
                assert_close(w, mpf(expected[k].numerator) / expected[k].denominator)

    def test_recurrence_agrees_with_convolution(self, dps50):
        base = binomial_pmf(1, "0.37")
        built = binomial_pmf(1, "0.37")
        for n in range(2, 9):
            built = convolve(built, base)
            direct = binomial_pmf(n, "0.37")
            for k in direct.support():
                assert_close(built.weight_at(k), direct.weight_at(k))

    def test_mean(self, dps50):
        assert_close(mean(binomial_pmf(12, "0.3")), mpf("3.6"))

    def test_rejects_bad_arguments(self, dps50):
        with pytest.raises(ValueError):
            binomial_pmf(-1, "0.5")
        with pytest.raises(ValueError):
            binomial_pmf(3, "1.5")


def exact_binomial_numerators(n: int, a: int, b: int) -> list:
    """comb(n, k) a**k b**(n-k) for k = 0 .. n, rolled down from a**n."""
    out = [a**n]
    for k in range(n, 0, -1):
        out.append(out[-1] * k * b // ((n - k + 1) * a))
    return out[::-1]


def assert_binomial_rounded_once(pmf: IntegerPmf, n: int, p) -> None:
    """Every weight of pmf = binomial_pmf(n, p) is within 2**-prec of the exact one.

    With pv = a / 2**e the mpf value of p, the exact Binomial(n, pv)
    weight is comb(n, k) a**k (2**e - a)**(n-k) / 2**(e n); the
    comparison stays in integers so that n = 500 at p = 1e-300 is cheap.
    """
    pv = exact_value(as_mpf(p, pmf.precision))
    a, d = pv.numerator, pv.denominator
    e = d.bit_length() - 1
    with working_precision(pmf.precision):
        prec = mpmath.mp.prec
    wants = exact_binomial_numerators(n, a, d - a) if 0 < pv < 1 else None
    for k, w in pmf.items():
        want = wants[k] if wants else comb(n, k) * a**k * (d - a) ** (n - k)
        man, exp = w.man_exp
        shift_bits = exp + e * n
        if shift_bits >= 0:
            diff, ref = abs((man << shift_bits) - want), want
        else:
            diff, ref = abs(man - (want << -shift_bits)), want << -shift_bits
        assert diff << prec <= ref, f"n={n} p={p} weight {k}"


class TestBinomialPmfRoundedOnce:
    @pytest.mark.parametrize("p", [Fraction(3, 10), Fraction(1, 3), "0.01", "1e-300", Fraction(1, 2)])
    def test_weights_within_half_ulp_of_exact(self, dps50, p):
        pv = exact_value(as_mpf(p, 50))
        for n in (0, 1, 2, 5, 33, 121, 500):
            pmf = binomial_pmf(n, p)
            assert_binomial_rounded_once(pmf, n, p)
            if n <= 33:
                # the integer oracle is the exact rational weight
                a, d = pv.numerator, pv.denominator
                nums = exact_binomial_numerators(n, a, d - a)
                assert [Fraction(x, d**n) for x in nums] == exact_binomial_weights(n, pv)

    def test_endpoints_are_point_masses(self, dps50):
        for n in (0, 1, 5, 40):
            assert binomial_pmf(n, 0).weights == (1,) + (0,) * n
            assert binomial_pmf(n, "1").weights == (0,) * n + (1,)

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8)])
    def test_reversal_is_the_complement_bitwise(self, dps50, p):
        for n in (1, 2, 7, 33, 120):
            forward = binomial_pmf(n, p).weights
            backward = binomial_pmf(n, 1 - p).weights
            assert [w._mpf_ for w in reversed(forward)] == [w._mpf_ for w in backward]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    p=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    n=st.integers(min_value=0, max_value=80),
    precision=st.sampled_from([20, 50, 80]),
)
def test_binomial_pmf_is_rounded_once(p, n, precision):
    pmf = binomial_pmf(n, p, precision)
    assert pmf.precision == precision
    assert_binomial_rounded_once(pmf, n, p)


class TestConvolve:
    def test_offsets_add(self, dps50):
        a = shift(binomial_pmf(2, "0.5"), 3)
        b = shift(binomial_pmf(1, "0.5"), -1)
        c = convolve(a, b)
        assert c.offset == 2
        assert c.size == a.size + b.size - 1

    def test_commutative(self, dps50):
        rng = random.Random(11)
        pairs = [(random_pmf(rng, 5), random_pmf(rng, 3))]
        pairs.append((ratio_pmf([1000**k for k in range(6)]), random_pmf(rng, 4)))
        pairs.append((ratio_pmf([3, 0, 0, 5, 0, 2]), ratio_pmf([10**40, 1, 10**80])))
        skewed = iid_sum_pmf(ratio_pmf([1, 10**300]), 16)
        pairs.append((skewed, iid_sum_pmf(random_pmf(rng, 3), 20)))
        for a, b in pairs:
            ab, ba = convolve(a, b), convolve(b, a)
            assert ab.offset == ba.offset
            assert ab.weights == ba.weights
            copy = replace(a, weights=tuple(list(a.weights)))
            assert convolve(a, a).weights == convolve(a, copy).weights

    def test_delta_is_identity(self, dps50):
        pmfs = [binomial_pmf(4, "0.3"), iid_sum_pmf(ratio_pmf([1, 10**300]), 8)]
        for pmf in pmfs:
            out = convolve(pmf, delta_pmf(2))
            assert out.offset == pmf.offset + 2
            assert out.weights == pmf.weights
            assert convolve(delta_pmf(-1), pmf).weights == pmf.weights

    def test_rounded_once_balanced_base(self, dps50):
        rng = random.Random(7)
        base = ratio_pmf([rng.randint(500, 1000) for _ in range(5)], -2)
        total = ladder_steps(base, 64)
        assert_rounded_once(total, base)

    def test_rounded_once_skewed_base(self, dps50):
        # successive weights 1000x apart: the 64-fold tails reach 1e-960
        total = ladder_steps(ratio_pmf([1000**k for k in range(6)]), 64)
        assert total.weights[0] < mpf("1e-955")

    def test_rounded_once_tiny_two_point_base(self, dps50):
        tiny = Fraction(1, 10**300)
        total = ladder_steps(IntegerPmf.from_weights([1 - tiny, tiny]), 256)
        assert total.weights[-1] < mpf("1e-76799")

    def test_runs_respect_the_span_bound(self, dps50):
        rng = random.Random(3)
        vectors = [
            iid_sum_pmf(binomial_pmf(1, "0.3"), 512).weights,
            iid_sum_pmf(ratio_pmf([1000**k for k in range(6)]), 32).weights,
            iid_sum_pmf(ratio_pmf([1, 10**300]), 16).weights,
            random_pmf(rng, 9).weights,
            ratio_pmf([0, 5, 0, 0, 1, 10**90, 0]).weights,
        ]
        for weights in vectors:
            for span in (0, 40, 340):
                runs = dist_core._runs([w._mpf_ for w in weights], span)
                covered = set()
                for start, ints, exp, bits in runs:
                    nonzero = [x for x in ints if x]
                    assert ints[0] and ints[-1]
                    assert max(x.bit_length() for x in ints) == bits
                    exps = [exp + (x & -x).bit_length() - 1 for x in nonzero]
                    assert max(exps) - min(exps) <= span
                    for i, x in enumerate(ints):
                        assert exact_value(weights[start + i]) == x * Fraction(2) ** exp
                        covered.add(start + i)
                assert all(weights[i] == 0 for i in range(len(weights)) if i not in covered)

    def test_precision_mismatch_rejected(self):
        a = binomial_pmf(2, "0.5", 50)
        b = binomial_pmf(2, "0.5", 30)
        with pytest.raises(PrecisionMismatchError):
            convolve(a, b)

    def test_entropy_never_decreases_under_convolution(self, dps50):
        rng = random.Random(23)
        for _ in range(20):
            a, b = random_pmf(rng, rng.randint(2, 8)), random_pmf(rng, rng.randint(2, 8))
            h_sum = entropy(convolve(a, b))
            assert h_sum >= entropy(a) - eps_for(50)
            assert h_sum >= entropy(b) - eps_for(50)


class TestEntropy:
    def test_uniform_dyadic(self, dps50):
        for k in (1, 2, 3):
            size = 2**k
            pmf = IntegerPmf.from_weights([Fraction(1, size)] * size)
            assert_close(entropy(pmf), k * mpmath.ln(2))

    def test_shift_invariant(self, dps50):
        pmf = binomial_pmf(6, "0.21")
        assert entropy(shift(pmf, 9)) == entropy(pmf)

    def test_bounded_by_log_support(self, dps50):
        rng = random.Random(5)
        for _ in range(20):
            pmf = random_pmf(rng, rng.randint(2, 12))
            h = entropy(pmf)
            assert -eps_for(50) <= h <= mpmath.ln(pmf.size) + eps_for(50)


class TestIidSum:
    def test_matches_binomial(self, dps50):
        base = binomial_pmf(1, "0.3")
        for n in (1, 2, 3, 7, 12):
            summed = iid_sum_pmf(base, n)
            direct = binomial_pmf(n, "0.3")
            for k in direct.support():
                assert_close(summed.weight_at(k), direct.weight_at(k))

    def test_zero_folds_is_delta(self, dps50):
        out = iid_sum_pmf(binomial_pmf(1, "0.5"), 0)
        assert out.size == 1
        assert out.offset == 0

    def test_offset_scales(self, dps50):
        base = shift(binomial_pmf(1, "0.5"), 4)
        assert iid_sum_pmf(base, 3).offset == 12

    def test_one_ladder_for_single_and_shared_sums(self, dps50):
        base = ratio_pmf([3, 1, 4, 1, 5], -1)
        for n in range(1, 71):
            single, shared = iid_sum_pmf(base, n), iid_power_pmfs(base, [n])[n]
            assert single.offset == shared.offset
            assert single.weights == shared.weights

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
    def test_starting_from_the_lowest_rung_is_bit_identical(self, n, dps50):
        # The ladder skips convolving the point mass at zero with the first
        # rung it needs; convolving a weight of exactly 1 changes no bit.
        base = ratio_pmf([3, 1, 4, 1, 5], -1)
        rungs, chain = [base], delta_pmf(0)
        while len(rungs) < n.bit_length():
            rungs.append(convolve(rungs[-1], rungs[-1]))
        for rung, power in enumerate(rungs):
            if n >> rung & 1:
                chain = convolve(chain, power)
        summed = iid_sum_pmf(base, n)
        assert summed.offset == chain.offset
        assert [w._mpf_ for w in summed.weights] == [w._mpf_ for w in chain.weights]

    def test_support_budget_fails_before_any_convolution(self, dps50, monkeypatch):
        def refuse(a, b):
            raise AssertionError("convolved before the budget check")

        monkeypatch.setattr(dist_core, "convolve", refuse)
        with pytest.raises(BudgetExceededError, match="point budget"):
            iid_sum_pmf(binomial_pmf(1, "0.5"), MAX_SUM_SUPPORT)


@pytest.fixture
def ln_calls(monkeypatch):
    """Arguments of every logarithm the kernels of dist_core take while the test runs."""
    calls = []
    log = dist_core.mpf_log

    def counting_log(x, *args):
        calls.append(x)
        return log(x, *args)

    monkeypatch.setattr(dist_core, "mpf_log", counting_log)
    return calls


class TestEntropyChain:
    def test_matches_pointwise_entropies(self, dps50):
        chain = binomial_entropy_chain("0.42", 9)
        assert len(chain) == 10
        assert chain[0] == 0
        for n in (1, 4, 9):
            assert_close(chain[n], entropy(binomial_pmf(n, "0.42")))

    def test_monotone_in_n(self, dps50):
        chain = binomial_entropy_chain("0.3", 40)
        assert all(b > a for a, b in zip(chain[1:], chain[2:]))

    @pytest.mark.parametrize("p", CHAIN_PS)
    def test_matches_exact_rational_entropies(self, dps50, p):
        chain = binomial_entropy_chain(p, 200)
        assert len(chain) == 201
        for n in (1, 2, 7, 50, 121, 200):
            assert_close(chain[n], exact_binomial_entropy(n, p), tol="1e-45")

    @pytest.mark.parametrize("p", CHAIN_PS[:3])
    def test_symmetric_under_p_to_one_minus_p(self, dps50, p):
        for a, b in zip(binomial_entropy_chain(p, 120), binomial_entropy_chain(1 - p, 120)):
            assert_close(a, b, tol="1e-45")

    def test_edges(self, dps50, ln_calls):
        for p in (0, 1):
            assert binomial_entropy_chain(p, 5) == [0] * 6
            assert binomial_entropy_chain(p, 0) == [0]
        assert ln_calls == []
        assert binomial_entropy_chain("0.3", 0) == [0]

    def test_logarithm_count_is_linear(self, dps50, ln_calls):
        n_max = 150
        binomial_entropy_chain(Fraction(2, 7), n_max)
        assert len(ln_calls) == n_max + 1  # ln p, ln q and ln j for j = 2 .. n_max

    def test_row_budget_fails_before_any_work(self, dps50, ln_calls, monkeypatch):
        def refuse(*args):
            raise AssertionError("read p before the budget check")

        monkeypatch.setattr(dist_core, "_probability", refuse)
        for p in ("0.3", 0):
            with pytest.raises(BudgetExceededError, match="row budget"):
                binomial_entropy_chain(p, MAX_CHAIN_ROWS)
        assert ln_calls == []

    def test_budget_errors_share_one_base(self):
        for cls in (SeriesTruncationError, QuadratureError):
            assert issubclass(cls, BudgetExceededError)
        assert issubclass(BudgetExceededError, RuntimeError)
        assert not issubclass(BudgetExceededError, ValueError)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    p=st.fractions(min_value=0, max_value=1, max_denominator=1000),
    n_max=st.integers(min_value=0, max_value=60),
    data=st.data(),
)
def test_chain_agrees_with_mixed_pmf_entropy(p, n_max, data):
    chain = binomial_entropy_chain(p, n_max)
    n = data.draw(st.integers(min_value=0, max_value=n_max))
    for m in {n, n_max}:
        with working_precision(50):
            assert abs(chain[m] - entropy(binomial_pmf(m, p))) <= eps_for(50)


def exact_moments(raw, offset: int):
    total = sum(raw)
    mean = Fraction(sum((offset + i) * r for i, r in enumerate(raw)), total)
    var = Fraction(sum((offset + i - mean) ** 2 * r for i, r in enumerate(raw)), total)
    return mean, var


pmf_strategy = st.tuples(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8).filter(any),
    st.integers(min_value=-20, max_value=20),
)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(a=pmf_strategy, b=pmf_strategy)
def test_convolution_adds_mass_mean_and_variance(a, b):
    out = convolve(ratio_pmf(*a), ratio_pmf(*b))
    (mean_a, var_a), (mean_b, var_b) = exact_moments(*a), exact_moments(*b)
    with working_precision(50):
        eps = eps_for(50)
        mu = mean(out)
        var = mpmath.fsum(w * (k - mu) ** 2 for k, w in out.items())
        scale = 1 + abs(mean_a + mean_b) ** 2
        assert abs(mpmath.fsum(out.weights) - 1) <= eps
        assert abs(mu - as_mpf(mean_a + mean_b, 50)) <= eps * scale
        assert abs(var - as_mpf(var_a + var_b, 50)) <= eps * scale
