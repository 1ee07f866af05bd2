"""Series expansion, Gaussian and (q,t)-binomials, closed-form Hilbert series."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobpow import ff, qseries
from frobpow.ff import CapExceeded, factor_prime_power
from frobpow.group import GroupSpec
from frobpow.invariants import brute_force_hilbert, full_gl_fixed_basis, verify_decomposition
from frobpow.qseries import (
    RationalExpr, TruncatedSeries, _qt_poly, expand, gaussian_binomial, hilbert_A,
    hilbert_B, hilbert_for_spec, hilbert_main_fp, lrs_conjecture)


def stabilizer(q, n):
    """The full hyperplane stabilizer in GL_n(F_q)."""
    p, r = factor_prime_power(q)
    return GroupSpec(p=p, r=r, n=n, full_stabilizer=True)


class TestExpand:
    def test_geometric(self):
        assert expand(RationalExpr(((1, 0),), (1,)), 3).coeffs == (1, 1, 1, 1)

    def test_polynomial_quotient(self):
        assert expand(RationalExpr(((1, 0), (-1, 2)), (1,)), 3).coeffs == (1, 1, 0, 0)

    def test_two_routes_agree(self):
        # prefactor of the n=3 series: expansion vs direct multiplication
        num = [1, 0, 0, 0, 0, -2] + [0] * 4 + [1]  # (1 - t^5)^2
        expr = RationalExpr(tuple((c, d) for d, c in enumerate(num) if c), (5, 5, 4))
        got = expand(expr, 8)
        by_hand = expand(RationalExpr(((1, 0),), (4,)), 8)
        assert got.coeffs == by_hand.coeffs

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="at least 1"):
            RationalExpr(((1, 0),), (0,))
        with pytest.raises(ValueError, match="nonnegative"):
            expand(RationalExpr(((1, 0),), (1,)), -1)

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 8)),
                    min_size=0, max_size=5),
           st.lists(st.integers(1, 4), min_size=0, max_size=3))
    @settings(max_examples=60)
    def test_remultiplication_recovers_numerator(self, numer, denom):
        D = 20
        s = expand(RationalExpr(tuple(numer), tuple(denom)), D)
        c = list(s.coeffs)
        for w in denom:
            c = [c[i] - (c[i - w] if i >= w else 0) for i in range(D + 1)]
        want = [0] * (D + 1)
        for coeff, exp in numer:
            want[exp] += coeff
        assert c == want

    def test_series_str_and_json(self):
        s = TruncatedSeries((1, 0, 2), closed_form="f")
        assert str(s) == "1*t^0 + 2*t^2"
        assert str(TruncatedSeries((0, 0))) == "0"
        # the streamed pretty line is made of the same pieces as str
        assert list(s.terms()) == ["1*t^0", " + 2*t^2"]
        assert list(TruncatedSeries((0, 5, 0, 7)).terms()) == ["5*t^1", " + 7*t^3"]
        assert list(TruncatedSeries((0, 0)).terms()) == ["0"]
        assert s.to_json() == {"coeffs": [1, 0, 2], "truncation": 2, "closed_form": "f"}
        assert s[2] == 2 and s[5] == 0 and s[-1] == 0


def schoolbook_mul(a, b):
    """The dense product the closed forms were once built from, kept as a reference."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def geometric(count, stride):
    """[count]_{t^stride} = (1 - t^{count stride}) / (1 - t^stride), densely."""
    out = [0] * ((count - 1) * stride + 1)
    out[::stride] = [1] * count
    return out


class TestRatio:
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(1, 4), st.integers(1, 7)), max_size=4),
           st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_matches_products_of_geometric_blocks(self, a, blocks, rng):
        # each (1 - t^u)/(1 - t^v) with v | u is the block [u/v]_{t^v}; the
        # factors are shuffled apart, so divisions need not follow their own up
        want = list(a)
        for count, stride in blocks:
            want = schoolbook_mul(want, geometric(count, stride))
        ups = [count * stride for count, stride in blocks]
        downs = [stride for _, stride in blocks]
        rng.shuffle(ups)
        rng.shuffle(downs)
        assert qseries._ratio(a, ups, downs) == want

    def test_plain_factors(self):
        assert qseries._ratio([2, 1], [3]) == [2, 1, 0, -2, -1]
        assert qseries._ratio([1, 0, -1], (), [1]) == [1, 1]
        assert qseries._ratio([4]) == [4]

    @pytest.mark.parametrize("a,ups,downs", [
        ([1], (), (2,)), ([1], (3,), (2,)), ([1, 1], (4,), (1, 1, 1, 1, 1)),
    ])
    def test_inexact_division_raises(self, a, ups, downs):
        with pytest.raises(AssertionError, match="remainder"):
            qseries._ratio(a, ups, downs)


class TestGaussianBinomial:
    def test_edges(self):
        assert gaussian_binomial(4, 0, 3) == 1
        assert gaussian_binomial(4, 4, 3) == 1
        assert gaussian_binomial(3, 5, 2) == 0
        assert gaussian_binomial(3, -1, 2) == 0

    def test_small_values(self):
        assert gaussian_binomial(2, 1, 2) == 3
        assert gaussian_binomial(2, 1, 3) == 4
        assert gaussian_binomial(2, 1, 7) == 8
        assert gaussian_binomial(4, 2, 2) == 35

    def test_column_count(self):
        for q in (2, 3, 4, 5):
            for m in range(1, 5):
                assert gaussian_binomial(m, 1, q) == (q ** m - 1) // (q - 1)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_pascal_recurrence(self, q):
        for m in range(1, 6):
            for k in range(0, m + 1):
                assert gaussian_binomial(m, k, q) == (
                    q ** k * gaussian_binomial(m - 1, k, q)
                    + gaussian_binomial(m - 1, k - 1, q))

    def test_rejects(self):
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 0, 2)
        with pytest.raises(ValueError):
            gaussian_binomial(2, 1, 1)


class TestQtBinomial:
    # _qt_poly(m, k, q) is prod_(i<k) (1-t^(q^m-q^i))/(1-t^(q^k-q^i)) as a dense list
    def test_empty_product(self):
        assert _qt_poly(3, 0, 2) == [1]

    def test_full_column(self):
        assert _qt_poly(1, 1, 3) == [1]

    def test_two_one_two(self):
        assert _qt_poly(2, 1, 2) == [1, 1, 1]

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_specializes_to_gaussian(self, q):
        for m in range(0, 4):
            for k in range(0, m + 1):
                poly = _qt_poly(m, k, q)
                assert sum(poly) == gaussian_binomial(m, k, q)
                assert all(c >= 0 for c in poly)

    def test_degree(self):
        # top degree of [m k] is k(q^m - q^k)
        poly = _qt_poly(3, 2, 2)
        assert len(poly) - 1 == 2 * (8 - 4)
        assert poly[-1] == 1


FAMILY_GRID = [
    (p, n, m, ell, e)
    for p in (2, 3, 5) for n in (2, 3) for m in (1, 2)
    for ell in range(n) for e in range(1, p) if (p - 1) % e == 0
]


class TestMainSeries:
    def test_smallest_case(self):
        assert hilbert_main_fp(2, 2, 1, 1, 1).coeffs == (1, 1, 1)

    def test_archetype_totals(self):
        assert hilbert_main_fp(5, 3, 1, 2, 4).total == 26
        assert hilbert_main_fp(5, 3, 1, 2, 1).total == 29

    @pytest.mark.parametrize("p,n,m,ell,e", FAMILY_GRID + [(31, 3, 3, 2, 30), (17, 3, 3, 0, 4)],
                             ids=lambda v: str(v))
    def test_grid_totals_and_positivity(self, p, n, m, ell, e):
        # the three printed forms are asserted equal inside the call
        s = hilbert_main_fp(p, n, m, ell, e)
        assert s.total == p ** (m * (n - 1)) + p ** (m * (n - 1) - ell) * (p ** m - 1) // e
        assert all(c >= 0 for c in s.coeffs)
        assert len(s.coeffs) == n * (p ** m - 1) + 1

    def test_nonmodular_reduction(self):
        # ell = 0 collapses to (1-t^P)^{n-1}(1-t^{P+e-1}) / ((1-t)^{n-1}(1-t^e))
        p, n, m, e = 5, 3, 1, 4
        P = p ** m
        prod = {0: 1}
        for shift_by, sign in [(P, -1), (P, -1), (P + e - 1, -1)]:
            new = {}
            for d, c in prod.items():
                new[d] = new.get(d, 0) + c
                new[d + shift_by] = new.get(d + shift_by, 0) + sign * c
            prod = new
        expr = RationalExpr(tuple((c, d) for d, c in sorted(prod.items()) if c),
                            (1, 1, e))
        D = n * (P - 1)
        assert hilbert_main_fp(p, n, m, 0, e).coeffs == expand(expr, D).coeffs

    def test_e1_alternative_form(self):
        # full-transvection series: first summand plus the shifted quotient block
        p, n, m = 3, 2, 2
        P = p ** m
        D = n * (P - 1)
        first = expand(RationalExpr(
            ((1, 0), (-1, P), (-1, P - 1), (1, P + P - 1)), (p, 1)), D)
        second = expand(RationalExpr(((1, P - 1), (-1, P - 1 + P)), (1,)), D)
        want = tuple(a + b for a, b in zip(first.coeffs, second.coeffs))
        assert hilbert_main_fp(p, n, m, 1, 1).coeffs == want

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=2, n=2, ell=1, e=1), 1),
        (GroupSpec(p=2, n=2, ell=1, e=1), 3),
        (GroupSpec(p=3, n=2, ell=1, e=2), 2),
        (GroupSpec(p=3, n=2, ell=0, e=2), 2),
        (GroupSpec(p=5, n=3, ell=2, e=4), 1),
        (GroupSpec(p=5, n=3, ell=1, e=2), 1),
        (GroupSpec(p=2, n=3, ell=2, e=1), 2),
    ], ids=str)
    def test_matches_brute_force(self, spec, m):
        s = hilbert_main_fp(spec.p, spec.n, m, spec.ell, spec.e)
        assert s.coeffs == brute_force_hilbert(spec, m).dims

    def test_rejects(self):
        with pytest.raises(ValueError, match="must divide"):
            hilbert_main_fp(5, 2, 1, 1, 3)
        with pytest.raises(ValueError, match="at least 1"):
            hilbert_main_fp(2, 2, 0, 1, 1)
        with pytest.raises(ValueError, match="prime"):
            hilbert_main_fp(6, 2, 1, 1, 1)


class TestStabilizerSeries:
    def test_q4(self):
        s = hilbert_for_spec(stabilizer(4, 2), 1)
        assert s.coeffs == (1, 0, 0, 1, 1, 1, 1)
        assert s.total == 5

    @pytest.mark.parametrize("q,n,m", [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2),
                                       (2, 3, 1), (2, 3, 2), (3, 3, 1), (5, 2, 1)])
    def test_prime_field_agrees_with_family(self, q, n, m):
        got = hilbert_for_spec(stabilizer(q, n), m)
        want = hilbert_main_fp(q, n, m, n - 1, q - 1)
        assert got.coeffs == want.coeffs

    @pytest.mark.parametrize("q,n,m", [(4, 2, 1), (4, 2, 2), (9, 2, 1), (8, 2, 1),
                                       (4, 3, 1)])
    def test_totals(self, q, n, m):
        s = hilbert_for_spec(stabilizer(q, n), m)
        assert s.total == q ** (m * (n - 1)) + q ** ((m - 1) * (n - 1)) * (q ** m - 1) // (q - 1)

    @pytest.mark.parametrize("q,n,m", [(4, 2, 1), (2, 2, 2), (3, 3, 1)])
    def test_matches_brute_force(self, q, n, m):
        spec = stabilizer(q, n)
        assert hilbert_for_spec(spec, m).coeffs == brute_force_hilbert(spec, m).dims

    @pytest.mark.parametrize("q,n,m", [(2, 2, 2), (3, 2, 2), (4, 2, 1), (2, 3, 2)])
    def test_catalan_reformulation(self, q, n, m):
        # the two-term Fuss-Catalan sum: the hyperplane block contributes
        # ((1-t^{q^m})/(1-t))^{n-1} shifted by t^{q^m-1} with Fuss parameter
        # q^m - 1, the full block has degrees (q,...,q,q-1) and parameter
        # (q^m - q)/(q - 1)
        Q = q ** m
        D = n * (Q - 1)
        c1 = (Q - q) // (q - 1)
        degrees = [q] * (n - 1) + [q - 1]
        prod = {0: 1}
        for d in degrees:
            top = d + c1 * (q - 1)
            new = {}
            for dd, c in prod.items():
                new[dd] = new.get(dd, 0) + c
                new[dd + top] = new.get(dd + top, 0) - c
            prod = new
        full_block = expand(RationalExpr(
            tuple((c, d) for d, c in sorted(prod.items()) if c), tuple(degrees)), D)
        hyper = {0: 1}
        for _ in range(n - 1):
            new = {}
            for dd, c in hyper.items():
                new[dd] = new.get(dd, 0) + c
                new[dd + Q] = new.get(dd + Q, 0) - c
            hyper = new
        hyper_block = expand(RationalExpr(
            tuple((c, d + Q - 1) for d, c in sorted(hyper.items()) if c),
            tuple([1] * (n - 1))), D)
        want = tuple(a + b for a, b in zip(full_block.coeffs, hyper_block.coeffs))
        assert hilbert_for_spec(stabilizer(q, n), m).coeffs == want

    def test_rejects(self):
        with pytest.raises(ValueError, match="not prime"):
            GroupSpec(p=6, n=2, full_stabilizer=True)
        with pytest.raises(ValueError, match="at least 1"):
            hilbert_for_spec(stabilizer(4, 2), 0)


class TestABSeries:
    @pytest.mark.parametrize("w,n,m,e", [
        (2, 2, 1, 1), (2, 2, 3, 1), (3, 2, 2, 2), (3, 2, 2, 1),
        (5, 3, 1, 4), (2, 3, 2, 1), (3, 3, 1, 2), (5, 2, 2, 2),
    ], ids=str)
    def test_sum_is_main_series(self, w, n, m, e):
        A = hilbert_A(w, n, m, e)
        B = hilbert_B(w, n, m)
        M = hilbert_main_fp(w, n, m, n - 1, e)
        assert tuple(a + b for a, b in zip(A.coeffs, B.coeffs)) == M.coeffs

    @pytest.mark.parametrize("q,n,m", [(4, 2, 1), (4, 2, 2), (9, 2, 1)])
    def test_sum_is_stabilizer_series(self, q, n, m):
        A = hilbert_A(q, n, m, q - 1)
        B = hilbert_B(q, n, m)
        S = hilbert_for_spec(stabilizer(q, n), m)
        assert tuple(a + b for a, b in zip(A.coeffs, B.coeffs)) == S.coeffs

    def test_b_vanishes_for_two_points(self):
        assert hilbert_B(2, 2, 1).total == 0
        assert hilbert_B(2, 2, 4).total == 0

    def test_archetype_display(self):
        # (1-t^{5^m})^2 (1-t^{5^m+e-1} + 2 t^{5^m}(1-t^e)) / ((1-t^5)^2 (1-t^e))
        for m, e in [(1, 4), (1, 2), (2, 4)]:
            P = 5 ** m
            prod = {0: 1, P + e - 1: -1, P: 2, P + e: -2}
            sq = {0: 1, P: -2, 2 * P: 1}
            numer = {}
            for d1, c1 in sq.items():
                for d2, c2 in prod.items():
                    numer[d1 + d2] = numer.get(d1 + d2, 0) + c1 * c2
            D = 3 * (P - 1)
            expr = RationalExpr(tuple((c, d) for d, c in sorted(numer.items()) if c),
                                (5, 5, e))
            assert hilbert_A(5, 3, m, e).coeffs == expand(expr, D).coeffs

    @pytest.mark.parametrize("spec,m", [
        (GroupSpec(p=2, n=2, ell=1, e=1), 2),
        (GroupSpec(p=3, n=2, ell=1, e=1), 1),
        (GroupSpec(p=3, n=2, ell=1, e=2), 2),
        (GroupSpec(p=5, n=3, ell=2, e=4), 1),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 1),
        (GroupSpec(p=2, r=2, n=2, full_stabilizer=True), 2),
    ], ids=str)
    def test_matches_rank_computations(self, spec, m):
        w = spec.q if spec.full_stabilizer else spec.p
        rows = verify_decomposition(spec, m).rows  # (degree, dim A, dim B, A + B, brute)
        assert hilbert_A(w, spec.n, m, spec.e).coeffs == tuple(r[1] for r in rows)
        assert hilbert_B(w, spec.n, m).coeffs == tuple(r[2] for r in rows)

    def test_rejects(self):
        with pytest.raises(ValueError, match="dividing"):
            hilbert_A(5, 2, 1, 3)
        with pytest.raises(ValueError, match="not a prime power"):
            hilbert_B(6, 2, 1)


class TestConjectureSeries:
    def test_single_variable(self):
        assert lrs_conjecture(2, 1, 1).coeffs == (1, 1)
        assert lrs_conjecture(2, 1, 2).coeffs == (1, 1, 1, 1)
        assert lrs_conjecture(3, 1, 1).coeffs == (1, 0, 1)

    def test_metadata(self):
        s = lrs_conjecture(2, 2, 1)
        assert s.conjectural
        assert s.to_json()["conjectural"] is True
        assert "[1 k]_(2,t)" in s.closed_form

    def test_totals_are_gaussian_sums(self):
        for (q, n, m) in [(2, 2, 2), (3, 2, 2), (2, 3, 3), (4, 2, 2), (5, 2, 1)]:
            want = sum(gaussian_binomial(m, k, q) for k in range(min(n, m) + 1))
            assert lrs_conjecture(q, n, m).total == want

    @pytest.mark.parametrize("q,n,m", [
        (2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2),
        (2, 3, 1), (2, 3, 2), (3, 3, 1), (4, 2, 1),
    ])
    def test_agrees_with_tiny_brute_force(self, q, n, m):
        # observed equality at desk scale; recorded as computation, not theorem
        dims = tuple(len(v) for v in full_gl_fixed_basis(q, n, m))
        assert lrs_conjecture(q, n, m).coeffs == dims

    def test_rejects(self):
        with pytest.raises(ValueError, match="not a prime power"):
            lrs_conjecture(10, 2, 1)


class TestDispatcher:
    def test_routes(self):
        stab = GroupSpec(p=2, r=2, n=2, full_stabilizer=True)
        assert hilbert_for_spec(stab, 1).total == 5
        fam = GroupSpec(p=5, n=3, ell=2, e=4)
        assert hilbert_for_spec(fam, 1).total == 26
        extension_cyclic = GroupSpec(p=2, r=2, n=2, ell=0, e=3)
        assert hilbert_for_spec(extension_cyclic, 1) is None

    def test_truncation_override(self):
        s = hilbert_for_spec(GroupSpec(p=2, n=2, ell=1, e=1), 1, D=6)
        assert s.coeffs == (1, 1, 1, 0, 0, 0, 0)


class TestTruncationBound:
    BUILDERS = {
        "main_fp": lambda D: hilbert_main_fp(3, 2, 1, 1, 2, D=D),
        "stabilizer_fq": lambda D: hilbert_for_spec(stabilizer(4, 2), 1, D),
        "for_spec": lambda D: hilbert_for_spec(GroupSpec(p=5, n=3, ell=2, e=4), 1, D),
        "A": lambda D: hilbert_A(3, 2, 1, 2, D=D),
        "B": lambda D: hilbert_B(4, 3, 1, D=D),
        "conjecture": lambda D: lrs_conjecture(2, 2, 2, D=D),
    }

    @pytest.mark.parametrize("name", BUILDERS)
    def test_bound_below_the_degree_raises(self, name):
        build = self.BUILDERS[name]
        full = build(None)
        degree = max(d for d, c in enumerate(full.coeffs) if c)
        for D in (0, degree - 1):
            with pytest.raises(ValueError, match=f"the least valid D is {degree}$"):
                build(D)
        assert build(degree).coeffs == full.coeffs[:degree + 1]


class TestSeriesBudget:
    BUILDERS = {
        "main_fp": lambda w, n, m: hilbert_main_fp(w, n, m, 0, 1),
        "stabilizer_fq": lambda w, n, m: hilbert_for_spec(stabilizer(w, n), m),
        "A": lambda w, n, m: hilbert_A(w, n, m, w - 1),
        "B": lambda w, n, m: hilbert_B(w, n, m),
        "conjecture": lambda w, n, m: lrs_conjecture(w, n, m),
        "expand": lambda w, n, m: expand(
            RationalExpr(((1, 0), (-1, w ** m)) * (n - 1), (1,) * (n - 1)), n * (w ** m - 1)),
    }

    @pytest.mark.parametrize("name", BUILDERS)
    @pytest.mark.parametrize("w,n,m", [(31, 2, 3), (17, 3, 3), (2, 4, 12), (3, 5, 5)], ids=str)
    def test_peak_within_the_charge(self, monkeypatch, name, w, n, m):
        # every list a builder holds at once stays within what it charged
        charged = []
        check = ff.check_budget

        def record(nbytes, what):
            charged.append(nbytes)
            check(nbytes, what)

        monkeypatch.setattr(qseries, "check_budget", record)
        tracemalloc.start()
        try:
            series = self.BUILDERS[name](w, n, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        length = n * (w ** m - 1) + 1
        assert len(series.coeffs) == length
        assert charged and max(charged) >= qseries._COEFF_BYTES * length
        assert peak <= max(charged)

    @pytest.mark.parametrize("name", BUILDERS)
    def test_charged_before_any_list_is_built(self, monkeypatch, name):
        def no_lists(*args):
            raise AssertionError("built a list before the charge")

        monkeypatch.setattr(qseries, "_ratio", no_lists)
        monkeypatch.setattr(ff, "MATRIX_BYTE_CAP", qseries._COEFF_BYTES * 2000)
        with pytest.raises(CapExceeded, match="a series of 4801 coefficients needs"):
            self.BUILDERS[name](7, 2, 4)  # 2(7^4 - 1) + 1 coefficients

    @pytest.mark.parametrize("name", BUILDERS)
    def test_a_huge_series_is_refused_in_one_short_line(self, name):
        # 2(2^20000 - 1) + 1 coefficients, a count past Python's 4300-digit str limit
        with pytest.raises(CapExceeded, match=r"^a series of about 2\^20001 coefficients "
                                              r"needs about 2\^19989 MiB, above the budget"):
            self.BUILDERS[name](2, 2, 20000)
