"""Decomposability preservation, wedge-power maps, and the classification."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    apply_map,
    curvature_by_contractions,
    flat_form_by_solves,
    intersect_spans,
    perm_sign,
    permute,
    recover_square_root_by_spans,
    same_subspace,
)
from projdyn.curvclass import (
    BivectorMap,
    CurvatureForm,
    _common_line,
    _compound_minors,
    _decomposable_span,
    _recover_square_root,
    DecomposabilityError,
    Eq91ViolationError,
    KernelNotTrivialError,
    classify_bivector_map,
    classify_curvature_form,
    flat_form_tensor,
    curvature_from_symmetric_map,
    metric_form_tensor,
    pair_basis,
    preserves_decomposables,
    wedge_power_map,
)
from projdyn.exactlin import Tensor, accumulate, basis_multivector, det, kernel, vector, wedge
from projdyn.polyintegrals import pair_tableau
from projdyn.young import check_imAS


def rand_matrix(rng, rows, cols, span=3):
    return [[Fraction(rng.randint(-span, span)) for _ in range(cols)] for _ in range(rows)]


def rand_invertible(rng, d):
    while True:
        B = rand_matrix(rng, d, d)
        if det(B) != 0:
            return B


def rand_symmetric_invertible(rng, d):
    while True:
        B = rand_matrix(rng, d, d)
        S = [[B[i][j] + B[j][i] for j in range(d)] for i in range(d)]
        if det(S) != 0:
            return S


def rand_symmetric_rank(rng, d, r):
    """Random symmetric matrix of rank exactly r (congruence of a diagonal)."""
    while True:
        P = rand_invertible(rng, d)
        D = [[Fraction(1 if i == j and i < r else 0) for j in range(d)] for i in range(d)]
        PD = [[sum(P[i][k] * D[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        S = [[sum(PD[i][k] * P[j][k] for k in range(d)) for j in range(d)] for i in range(d)]
        from projdyn.exactlin import rank as mat_rank

        if mat_rank(S) == r:
            return S


# -- preservation test ---------------------------------------------------------

def test_wedge_square_always_preserves():
    rng = random.Random(0)
    for d in (3, 4, 5):
        for _ in range(5):
            R = BivectorMap.wedge_square(rand_matrix(rng, d, d))
            assert preserves_decomposables(R)


def test_dim3_source_always_preserves():
    rng = random.Random(1)
    prs = pair_basis(3)
    for _ in range(10):
        R = BivectorMap(3, 3, rand_matrix(rng, len(prs), len(prs)))
        assert preserves_decomposables(R)


def test_generic_dim4_maps_fail():
    rng = random.Random(2)
    fails = 0
    for _ in range(10):
        prs = pair_basis(4)
        R = BivectorMap(4, 4, rand_matrix(rng, len(prs), len(prs)))
        if not preserves_decomposables(R):
            fails += 1
    assert fails >= 9  # a random map essentially never preserves decomposables


def test_specific_partial_map_expansion():
    # e0^e1 -> e0^e1, e2^e3 -> e0^e1, e0^e2 -> e2^e3, rest -> 0:
    # x=e0+e2, y=e1+e3 maps to e0^e1 + e2^e3 + e0^e1-ish; decide by expansion
    prs = pair_basis(4)
    idx = {pr: k for k, pr in enumerate(prs)}
    M = [[Fraction(0)] * len(prs) for _ in range(len(prs))]
    M[idx[(0, 1)]][idx[(0, 1)]] = 1
    M[idx[(0, 1)]][idx[(2, 3)]] = 1
    M[idx[(2, 3)]][idx[(0, 2)]] = 1
    R = BivectorMap(4, 4, M)
    assert not preserves_decomposables(R)
    # witness: e0 ^ (e1 + e2) maps to e0^e1 + e2^e3, whose square is 2 e0123
    pi = wedge(vector(4, [1, 0, 0, 0]), vector(4, [0, 1, 1, 0]))
    img = apply_map(R, pi)
    assert not wedge(img, img).is_zero()


def preserves_by_fraction_expansion(R):
    """The biquadratic expansion over Fraction on every ordered pair of
    basis pairs: the reference for the integer expansion."""
    images = {pr: R.image_of_basis_pair(*pr) for pr in R.src_pairs}
    coeffs = {}
    for (a, b) in R.src_pairs:
        for (c, d) in R.src_pairs:
            w = wedge(images[(a, b)], images[(c, d)])
            for xm, ym, sign in (((a, c), (b, d), 1), ((a, d), (b, c), -1),
                                 ((b, c), (a, d), -1), ((b, d), (a, c), 1)):
                acc = coeffs.setdefault((tuple(sorted(xm)), tuple(sorted(ym))), {})
                for idx, val in w.coords.items():
                    accumulate(acc, idx, sign * val)
    return all(not acc for acc in coeffs.values())


RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7, 10**6 + 3]))


@st.composite
def bivector_maps(draw):
    """Wedge squares and maps with a common wedge factor (both preserve
    decomposables), each possibly perturbed in one entry."""
    d = draw(st.integers(4, 5))
    vec = st.lists(RATIONAL, min_size=d, max_size=d)
    if draw(st.booleans()):
        R = BivectorMap.wedge_square([draw(vec) for _ in range(d)])
    else:
        phi = vector(d, draw(vec))
        R = BivectorMap.from_images(d, d, [wedge(phi, vector(d, draw(vec))) for _ in pair_basis(d)])
    m = [list(row) for row in R.matrix]
    if draw(st.booleans()):
        r, c = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
        m[r][c] += draw(RATIONAL)
    return BivectorMap(d, d, m)


@settings(max_examples=60, deadline=None)
@given(bivector_maps(), RATIONAL.filter(bool))
def test_preserves_decomposables_matches_fraction_expansion(R, c):
    verdict = preserves_by_fraction_expansion(R)
    assert preserves_decomposables(R) == verdict
    scaled = BivectorMap(R.dim_src, R.dim_dst, [[c * x for x in row] for row in R.matrix])
    assert preserves_decomposables(scaled) == verdict


def test_preserves_decomposables_sees_both_verdicts_in_dims_4_and_5():
    rng = random.Random(11)
    for d in (4, 5):
        R = BivectorMap.wedge_square([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)]
                                      for _ in range(d)])
        m = [list(row) for row in R.matrix]
        m[0][-1] += Fraction(1, 3)
        bent = BivectorMap(d, d, m)
        assert preserves_decomposables(R) and preserves_by_fraction_expansion(R)
        assert not preserves_decomposables(bent) and not preserves_by_fraction_expansion(bent)


def wedge_power_by_multivector_loop(R, p):
    """The induced map on 2p-vectors by wedging Multivector images pairing by
    pairing: the reference for the wedge-table power map."""
    from projdyn.curvclass import _matchings

    if not preserves_by_fraction_expansion(R):
        raise DecomposabilityError("map does not preserve decomposable bivectors")
    images = {}
    for subset in itertools.combinations(range(R.dim_src), 2 * p):
        value = None
        for matching, sign in _matchings(subset):
            img = None
            for (a, b) in matching:
                piece = R.image_of_basis_pair(a, b)
                img = piece if img is None else wedge(img, piece)
            img = img.scale(sign)
            if value is None:
                value = img
            elif value != img:
                raise DecomposabilityError("inconsistent pairings: the power map is ill-defined")
        images[subset] = value
    return images


@settings(max_examples=40, deadline=None)
@given(bivector_maps())
def test_wedge_power_map_matches_the_multivector_loop(R):
    try:
        expected = wedge_power_by_multivector_loop(R, 2)
    except DecomposabilityError:
        with pytest.raises(DecomposabilityError):
            wedge_power_map(R, 2)
        return
    assert wedge_power_map(R, 2).images == expected


def test_wedge_power_map_of_grade_six_matches_the_multivector_loop():
    rng = random.Random(16)
    R = BivectorMap.wedge_square([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
                                  for _ in range(6)])
    assert wedge_power_map(R, 3).images == wedge_power_by_multivector_loop(R, 3)
    assert wedge_power_map(R, 1).images == wedge_power_by_multivector_loop(R, 1)


def test_two_row_support_spans_the_support_of_a_decomposable():
    from projdyn.curvclass import _decomposable_span
    from projdyn.exactlin import clear_denominators, support

    rng = random.Random(17)
    for d in (3, 4, 5, 6):
        for _ in range(10):
            x, y = ([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] for _ in range(2))
            pi = wedge(vector(d, x), vector(d, y))
            if pi.is_zero():
                continue
            ints, _ = clear_denominators(pi.coords.values())
            rows = _decomposable_span(dict(zip(pi.coords, ints)), d)
            assert same_subspace(rows, support(pi))


def test_entries_past_the_int64_guard_match_the_fraction_expansion():
    # entries of 2**31 and more: every product of two of them passes the
    # 2**62 guard, so the wedge table runs on Python ints
    rng = random.Random(18)
    for d in (4, 5):
        B = [[rng.randint(-3, 3) * 2 ** 16 + rng.randint(0, 1) for _ in range(d)] for _ in range(d)]
        R = BivectorMap.wedge_square(B)
        assert max(abs(x) for row in R.matrix for x in row) >= 2 ** 31
        m = [list(row) for row in R.matrix]
        m[0][-1] += 2 ** 40
        bent = BivectorMap(d, d, m)
        for big in (R, bent, BivectorMap(d, d, [[x * 2 ** 70 for x in row] for row in m])):
            assert preserves_decomposables(big) == preserves_by_fraction_expansion(big)
        assert preserves_decomposables(R) and not preserves_decomposables(bent)
        assert wedge_power_map(R, 2).images == wedge_power_by_multivector_loop(R, 2)


def test_wedge_table_is_the_same_in_small_blocks(monkeypatch):
    # blocks of a few products, merged a few at a time, carry the running sums
    # across several merges
    from projdyn import curvclass, young

    rng = random.Random(19)
    maps = [BivectorMap.wedge_square(rand_matrix(rng, 5, 5)), BivectorMap(5, 5, rand_matrix(rng, 10, 10))]
    whole = [R.wedge_table() for R in maps]
    monkeypatch.setattr(curvclass, "_BLOCK", 7)
    monkeypatch.setattr(young, "_BLOCK", 20)
    for R, table in zip(maps, whole):
        small = BivectorMap(5, 5, R.matrix).wedge_table()
        assert small.preserves == table.preserves
        assert small.codes.tolist() == table.codes.tolist() and small.values.tolist() == table.values.tolist()
    assert [table.preserves for table in whole] == [True, False]


def test_sparse_form_far_past_the_code_range_decides_like_its_embedding():
    # over dimension 400 the (pair, pair, 4-subset) codes pass 2**62 and run
    # as Python ints; relabeling coordinates does not change the verdict
    def embedded(t, dim, coords):
        return CurvatureForm(Tensor(dim, 4, {tuple(coords[i] for i in idx): v for idx, v in t.entries.items()}))

    metric = metric_form_tensor([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, 3]])
    bent = metric + metric_form_tensor([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 2, 0], [1, 0, 0, 3]])
    for t, verdict in ((metric, True), (bent, False)):
        assert CurvatureForm(t).satisfies_decomposability() == verdict
        assert embedded(t, 400, [0, 7, 200, 399]).satisfies_decomposability() == verdict


def test_the_generator_chain_expands_each_form_once(monkeypatch):
    from projdyn import compat, curvclass

    calls = []
    inner = curvclass._wedge_table
    monkeypatch.setattr(curvclass, "_wedge_table", lambda *args: calls.append(args) or inner(*args))
    rng = random.Random(20)
    for G, case in ((rand_symmetric_invertible(rng, 4), "metric"), (rand_symmetric_rank(rng, 4, 3), "flat")):
        calls.clear()
        form = curvature_from_symmetric_map(G)
        assert classify_curvature_form(form).case == case
        assert compat.find_compatible_screen(form).verdict in ("quadric", "hyperplane")
        assert len(calls) == 1


def test_the_generator_chain_clears_each_form_once(monkeypatch):
    # generate, classify, find the screen: the form's entries are cleared to
    # integers once, into the table its class check reads; every other value
    # list cleared on the way (G, the witnesses, the screen's gradient) has
    # fewer than a quarter as many values
    from projdyn import compat, curvclass, polyintegrals, young

    sizes = []
    for module in (young, polyintegrals, curvclass, compat):
        def counted(values, inner=module.clear_denominators):
            values = list(values)
            sizes.append(len(values))
            return inner(values)

        monkeypatch.setattr(module, "clear_denominators", counted)
    rng = random.Random(22)
    for G, verdict in ((rand_symmetric_invertible(rng, 5), "quadric"), (rand_symmetric_rank(rng, 5, 4), "hyperplane")):
        sizes.clear()
        form = curvature_from_symmetric_map(G)
        classify_curvature_form(form)
        assert compat.find_compatible_screen(form).verdict == verdict
        n = len(form.tensor.entries)
        assert [size for size in sizes if 4 * size >= n] == [n]


def test_a_form_map_clears_as_its_dense_matrix_does():
    # a class member's entries at u > v or w > x are the negatives of those at
    # u < v, w < x, so the map read from the form's one integer table has the
    # columns and den of its own dense matrix cleared anew; a restriction
    # through the kernel is a CurvatureForm with its own table, report and
    # wedge table
    from projdyn.compat import quotient_form

    rng = random.Random(23)
    big = rand_symmetric_invertible(rng, 4)
    big = [[x * 2 ** 40 + Fraction(int(i == j), 7) for j, x in enumerate(row)] for i, row in enumerate(big)]
    cylinder = CurvatureForm(metric_form_tensor([[Fraction(1, 2), 0, 0, 0], [0, 3, 0, 0], [0, 0, Fraction(-1, 5), 0],
                                                 [0, 0, 0, 0]]))
    ker, inner, complement = quotient_form(cylinder)
    assert ker and complement == [0, 1, 2] and type(inner) is CurvatureForm
    forms = {
        "metric": curvature_from_symmetric_map(rand_symmetric_invertible(rng, 5)),
        "flat": curvature_from_symmetric_map(rand_symmetric_rank(rng, 5, 4)),
        "past 2**62": curvature_from_symmetric_map(big),
        "restricted": inner,
    }
    assert max(map(abs, forms["past 2**62"].table().vals)) > 2 ** 62
    for name, form in forms.items():
        table = form.wedge_table()
        R = form.bivector_map()
        assert R.wedge_table() is table, name
        dense = BivectorMap(form.dim, form.dim, R.matrix)
        assert R.cleared() == dense.cleared(), name
        assert [list(col) for col in R.cleared()[0]] == [list(col) for col in dense.cleared()[0]], name
        again = dense.wedge_table()
        assert table.codes.tolist() == again.codes.tolist() and table.values.tolist() == again.values.tolist(), name
    assert inner.table() is not cylinder.table() and inner.table().dim == 3
    report = classify_curvature_form(inner)
    assert report.case == "metric" and inner._report is report and cylinder._report is None
    assert inner.wedge_table() is not cylinder.wedge_table()
    with pytest.raises(KernelNotTrivialError):
        classify_curvature_form(cylinder)


def test_a_form_is_classified_once_and_its_errors_every_time(monkeypatch):
    from projdyn import compat, curvclass

    calls = []
    inner = curvclass._classify
    monkeypatch.setattr(curvclass, "_classify", lambda form: calls.append(form) or inner(form))
    rng = random.Random(21)
    for G, verdict in ((rand_symmetric_invertible(rng, 4), "quadric"), (rand_symmetric_rank(rng, 4, 3), "hyperplane")):
        calls.clear()
        form = curvature_from_symmetric_map(G)
        rep = classify_curvature_form(form)
        screen = compat.find_compatible_screen(form)
        assert screen.verdict == verdict
        assert classify_curvature_form(form) is rep
        assert len(calls) == 1
        # a fresh form with the same entries is classified anew, to the same reports
        fresh = CurvatureForm(form.tensor)
        assert classify_curvature_form(fresh).to_json() == rep.to_json()
        assert compat.find_compatible_screen(fresh).to_json() == screen.to_json()
        assert len(calls) == 2
    calls.clear()
    degenerate = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 2, 0], [0, 0, 0]]))
    for _ in range(2):
        with pytest.raises(KernelNotTrivialError):
            classify_curvature_form(degenerate)
    assert len(calls) == 2


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_the_generator_matches_the_contraction_path(d):
    rng = random.Random(40 + d)
    thirds = [[x / 3 for x in row] for row in rand_symmetric_rank(rng, d, d - 1)]
    for G in (rand_symmetric_invertible(rng, d), rand_symmetric_rank(rng, d, d - 1), thirds):
        got = curvature_from_symmetric_map(G).tensor.entries
        assert list(got.items()) == list(curvature_by_contractions(G).entries.items())
        assert all(type(v) is Fraction for v in got.values())


def test_flat_form_tensor_matches_one_solve_per_pair():
    rng = random.Random(41)
    for d in (3, 4, 5, 6):
        phi = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        phi[rng.randrange(d)] = Fraction(-2, 5)
        reduced = kernel([phi])
        k = len(reduced)
        mixed = [[sum(c * vec[i] for c, vec in zip(row, reduced)) for i in range(d)] for row in rand_invertible(rng, k)]
        g = rand_symmetric_invertible(rng, k)
        for basis in (reduced, mixed):
            got = flat_form_tensor(phi, g, basis).entries
            assert list(got.items()) == list(flat_form_by_solves(phi, g, basis).entries.items())
        # a dependent basis: its free column has coordinate zero
        padded = [[Fraction(0)] * (k + 1) for _ in range(k + 1)]
        for i in range(k):
            padded[i][:k] = g[i]
        padded[k][k] = Fraction(3)
        dependent = reduced + [reduced[0]]
        assert flat_form_tensor(phi, padded, dependent) == flat_form_by_solves(phi, padded, dependent)
        # a basis that misses part of ker(phi)
        leaving = reduced[:-1] + [[Fraction(1)] * d]
        for build in (flat_form_tensor, flat_form_by_solves):
            with pytest.raises(ValueError, match="left ker"):
                build(phi, g, leaving)


@pytest.mark.parametrize("perturb", [
    lambda B, eps, scale: ([[x + Fraction(1, 7) * (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(B)],
                           eps, scale),
    lambda B, eps, scale: (B, eps, scale * 2),
    lambda B, eps, scale: (B, -eps, scale),
])
def test_perturbed_square_roots_fail_their_verification(monkeypatch, perturb):
    from projdyn import curvclass

    real = curvclass._recover_square_root
    monkeypatch.setattr(curvclass, "_recover_square_root", lambda R: perturb(*real(R)))
    rng = random.Random(42)
    for d in (3, 4, 5):
        with pytest.raises(ArithmeticError, match="recovered wedge square failed verification"):
            classify_bivector_map(BivectorMap.wedge_square(rand_invertible(rng, d)))
        with pytest.raises(ArithmeticError, match="metric witness failed the full formula check"):
            classify_curvature_form(curvature_from_symmetric_map(rand_symmetric_invertible(rng, d)))


def test_a_perturbed_flat_metric_fails_its_verification(monkeypatch):
    from projdyn import curvclass

    real = curvclass._slice_metric

    def perturbed(form, phi, kernel_basis):
        g = real(form, phi, kernel_basis)
        for c in (Fraction(1), Fraction(2), Fraction(1, 3)):
            bent = [[x + c * (i == j == 0) for j, x in enumerate(row)] for i, row in enumerate(g)]
            if det(bent):
                return bent

    monkeypatch.setattr(curvclass, "_slice_metric", perturbed)
    rng = random.Random(43)
    for d in (3, 4, 5):
        with pytest.raises(ArithmeticError, match="flat witness failed the full formula check"):
            classify_curvature_form(curvature_from_symmetric_map(rand_symmetric_rank(rng, d, d - 1)))


def test_compound_matrix_minors_match_determinants():
    rng = random.Random(8)
    for d in range(1, 7):
        G = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)]
        G[0][0] = Fraction(0)
        for k in range(d + 1):
            minors, den = _compound_minors(G, k)
            subsets = list(itertools.combinations(range(d), k))
            assert sorted(minors) == [(S, T) for S in subsets for T in subsets]
            assert all(type(x) is int for x in minors.values())
            assert {key: Fraction(x, den) for key, x in minors.items()} == {
                (S, T): det([[G[i][j] for j in T] for i in S]) for S in subsets for T in subsets}


def test_a_form_eliminates_its_kernel_once_and_hands_out_fresh_lists(monkeypatch):
    from projdyn import compat, polyintegrals

    eliminated = []
    real = polyintegrals.kernel
    monkeypatch.setattr(polyintegrals, "kernel", lambda mat, cols=None: eliminated.append(cols) or real(mat, cols))
    degenerate = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 2, 0], [0, 0, 0]]))
    first = degenerate.kernel()
    assert first == [[0, 0, 1]]
    first[0][2] = 5
    first.append([1, 1, 1])
    assert degenerate.kernel() == [[0, 0, 1]]
    assert eliminated == [3]
    # a metric request classifies once (the screen finder reuses the report)
    form = curvature_from_symmetric_map([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    eliminated.clear()
    assert classify_curvature_form(form).case == "metric"
    assert compat.find_compatible_screen(form).verdict == "quadric"
    assert eliminated == [3]


# -- wedge power maps --------------------------------------------------------------

def test_wedge_power_identity():
    d = 4
    eye = BivectorMap.wedge_square([[Fraction(int(i == j)) for j in range(d)] for i in range(d)])
    p2 = wedge_power_map(eye, 2)
    vol = basis_multivector(4, (0, 1, 2, 3))
    assert apply_map(p2, vol) == vol


def test_wedge_power_of_wedge_square():
    rng = random.Random(3)
    B = rand_invertible(rng, 4)
    R = BivectorMap.wedge_square(B)
    p2 = wedge_power_map(R, 2)
    # on the volume element the power map multiplies by det(B)
    vol = basis_multivector(4, (0, 1, 2, 3))
    assert apply_map(p2, vol) == vol.scale(det(B))


def test_wedge_power_product_formula_on_random_decomposables():
    rng = random.Random(4)
    d = 5
    B = rand_invertible(rng, d)
    R = BivectorMap.wedge_square(B)
    p2 = wedge_power_map(R, 2)
    for _ in range(5):
        vs = [vector(d, [Fraction(rng.randint(-2, 2)) for _ in range(d)]) for _ in range(4)]
        pi1 = wedge(vs[0], vs[1])
        pi2 = wedge(vs[2], vs[3])
        assert apply_map(p2, wedge(pi1, pi2)) == wedge(apply_map(R, pi1), apply_map(R, pi2))


def test_wedge_power_rejects_bad_maps():
    rng = random.Random(5)
    prs = pair_basis(4)
    while True:
        R = BivectorMap(4, 4, rand_matrix(rng, len(prs), len(prs)))
        if not preserves_decomposables(R):
            break
    with pytest.raises(DecomposabilityError):
        wedge_power_map(R, 2)


def test_power_map_vanishes_for_full_rank_kernel_bivector():
    # a projection killing a rank-4 bivector forces the second power map to zero
    prs = pair_basis(4)
    idx = {pr: k for k, pr in enumerate(prs)}
    M = [[Fraction(0)] * len(prs) for _ in range(len(prs))]
    # R kills e0^e1 + e2^e3 and maps the complement pairs to a common-line family
    M[idx[(0, 1)]][idx[(0, 1)]] = 1
    M[idx[(0, 1)]][idx[(2, 3)]] = -1
    M[idx[(0, 2)]][idx[(0, 2)]] = 1
    M[idx[(0, 3)]][idx[(0, 3)]] = 1
    R = BivectorMap(4, 4, M)
    if preserves_decomposables(R):
        p2 = wedge_power_map(R, 2)
        assert p2.is_zero()


def test_eq83_equivalence_both_directions():
    # preservation holds iff the second power map is well defined
    rng = random.Random(6)
    good = BivectorMap.wedge_square(rand_invertible(rng, 4))
    assert preserves_decomposables(good)
    wedge_power_map(good, 2)  # exists
    prs = pair_basis(4)
    while True:
        bad = BivectorMap(4, 4, rand_matrix(rng, len(prs), len(prs)))
        if not preserves_decomposables(bad):
            break
    with pytest.raises(DecomposabilityError):
        wedge_power_map(bad, 2)


def test_inverse_of_preserving_map_preserves():
    from projdyn.exactlin import mat_inverse

    rng = random.Random(7)
    for d in (4, 5):
        B = rand_invertible(rng, d)
        R = BivectorMap.wedge_square(B)
        Rinv = BivectorMap(d, d, mat_inverse(R.matrix))
        assert preserves_decomposables(Rinv)
        # bijective on decomposables: the inverse sends images back
        for _ in range(5):
            vs = [vector(d, [Fraction(rng.randint(-2, 2)) for _ in range(d)]) for _ in range(2)]
            pi = wedge(vs[0], vs[1])
            assert apply_map(Rinv, apply_map(R, pi)) == pi


# -- classification of bivector maps --------------------------------------------------

def test_classify_zero_map_is_phi_case():
    prs = pair_basis(4)
    Z = BivectorMap(4, 4, [[0] * len(prs) for _ in range(len(prs))])
    assert classify_bivector_map(Z).case == "phi_degenerate"


def test_classify_wedge_square_round_trip():
    rng = random.Random(8)
    for d in (4, 5):
        for _ in range(5):
            B = rand_invertible(rng, d)
            R = BivectorMap.wedge_square(B)
            rep = classify_bivector_map(R)
            assert rep.case == "wedge_square"
            Bw = rep.witnesses["B"]
            # recovered B equals the input up to a global scale
            ratios = {
                B[i][j] / Bw[i][j]
                for i in range(d)
                for j in range(d)
                if Bw[i][j] != 0
            }
            assert len(ratios) == 1
            assert all(B[i][j] == 0 for i in range(d) for j in range(d) if Bw[i][j] == 0)


def test_classify_star_case_dim4():
    rng = random.Random(9)
    for _ in range(5):
        C = rand_invertible(rng, 4)
        R = BivectorMap.wedge_square(C).star_compose()
        rep = classify_bivector_map(R)
        assert rep.case == "star_wedge_square"
        Cw = rep.witnesses["C"]
        ratios = {C[i][j] / Cw[i][j] for i in range(4) for j in range(4) if Cw[i][j] != 0}
        assert len(ratios) == 1


def test_classify_phi_case_with_common_factor():
    # images all divisible by e0: R(pi) = e0 ^ (linear in pi)
    rng = random.Random(10)
    d = 4
    prs = pair_basis(d)
    images = []
    for _ in prs:
        y = vector(d, [Fraction(rng.randint(-2, 2)) for _ in range(d)])
        images.append(wedge(vector(d, [1, 0, 0, 0]), y))
    R = BivectorMap.from_images(d, d, images)
    rep = classify_bivector_map(R)
    assert rep.case == "phi_degenerate"
    assert rep.witnesses["phi"] == [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]


def test_classify_zeta_case():
    # images supported away from the last coordinate: zeta = e3* contracts to zero,
    # built so that no common wedge factor exists
    d = 4
    prs = pair_basis(d)
    idx = {pr: k for k, pr in enumerate(prs)}
    M = [[Fraction(0)] * len(prs) for _ in range(len(prs))]
    M[idx[(0, 1)]][idx[(0, 1)]] = 1
    M[idx[(0, 2)]][idx[(0, 2)]] = 1
    M[idx[(1, 2)]][idx[(1, 2)]] = 1
    R = BivectorMap(4, 4, M)
    assert preserves_decomposables(R)
    rep = classify_bivector_map(R)
    assert rep.case == "zeta_degenerate"
    assert rep.witnesses["zeta"] == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]


def test_classify_dim3_invertible_is_wedge_square():
    rng = random.Random(11)
    prs = pair_basis(3)
    while True:
        M = rand_matrix(rng, len(prs), len(prs))
        if det(M) != 0:
            break
    R = BivectorMap(3, 3, M)
    rep = classify_bivector_map(R)
    assert rep.case == "wedge_square"


@st.composite
def pencil_maps(draw):
    """Maps with decomposable images for d = 3-6.  Decomposability-preserving
    ones: wedge squares of random, possibly singular, B times a nonzero
    rational, their star compositions in d = 4, maps with a common wedge
    factor, and the bivector maps of generated curvature forms (metric and
    flat).  Only the wedge squares of invertible B (and the metric forms)
    are of wedge-square type.  Then maps whose images are random
    decomposables x ^ y (pencils without a common line once d >= 4), and
    maps c_ij l_i ^ l_j on random lines with random c_ij (a common line in
    every pencil, but no common scale s once d >= 4)."""
    kind = draw(st.sampled_from(["wedge_square", "star", "common_factor", "curvature", "decomposable", "lines"]))
    d = 4 if kind == "star" else draw(st.integers(3, 6))
    vec = st.lists(RATIONAL, min_size=d, max_size=d)
    if kind == "common_factor":
        phi = vector(d, draw(vec))
        return BivectorMap.from_images(d, d, [wedge(phi, vector(d, draw(vec))) for _ in pair_basis(d)])
    if kind == "decomposable":
        return BivectorMap.from_images(d, d, [wedge(vector(d, draw(vec)), vector(d, draw(vec))) for _ in pair_basis(d)])
    if kind == "lines":
        lines = [vector(d, draw(vec)) for _ in range(d)]
        return BivectorMap.from_images(
            d, d, [wedge(lines[i], lines[j]).scale(draw(RATIONAL.filter(bool))) for i, j in pair_basis(d)])
    if kind == "curvature":
        B = [draw(vec) for _ in range(d)]
        G = [[B[i][j] + B[j][i] for j in range(d)] for i in range(d)]
        return curvature_from_symmetric_map(G).bivector_map()
    R = BivectorMap.wedge_square([draw(vec) for _ in range(d)])
    if kind == "star":
        return R.star_compose()
    c = draw(RATIONAL.filter(bool))
    return BivectorMap(d, d, [[c * x for x in row] for row in R.matrix])


@settings(max_examples=80, deadline=None)
@given(pencil_maps())
def test_square_root_recovery_matches_the_full_span_intersection(R):
    assert _recover_square_root(R) == recover_square_root_by_spans(R)


@st.composite
def integer_pencils(draw):
    """Two to five nonzero decomposable integer bivectors in d = 3-6: random
    ones, ones through a common line l (l ^ y), and repeats of one plane."""
    d = draw(st.integers(3, 6))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    line = vector(d, draw(vec))
    pencil = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["random", "through_line", "repeat"]))
        if kind == "repeat" and pencil:
            w = pencil[-1].scale(draw(st.sampled_from([1, -2, 3])))
        else:
            w = wedge(line if kind == "through_line" else vector(d, draw(vec)), vector(d, draw(vec)))
        pencil.append(w)
    assume(all(not w.is_zero() for w in pencil))
    return d, [{key: int(v) for key, v in w.coords.items()} for w in pencil]


@settings(max_examples=150, deadline=None)
@given(integer_pencils())
def test_common_line_is_the_full_intersection_when_it_is_a_line(case):
    d, pencil = case
    expected = intersect_spans([_decomposable_span(col, d) for col in pencil])
    got = _common_line(pencil, d)
    if len(expected) != 1:
        assert got is None
    else:
        assert got is not None and same_subspace([got], expected)
        assert math.gcd(*got) == 1 and next(x for x in got if x) > 0


def test_square_root_recovery_sees_both_outcomes():
    rng = random.Random(12)
    for d in (3, 4, 5, 6):
        B = rand_invertible(rng, d)
        square = BivectorMap.wedge_square(B)
        singular = BivectorMap.wedge_square([[row[0]] + row[:-1] for row in B])  # R(e0 ^ e1) = 0
        got = _recover_square_root(square)
        assert got is not None and got == recover_square_root_by_spans(square)
        assert _recover_square_root(singular) is None is recover_square_root_by_spans(singular)
        # common lines in every pencil, but scales c_ij with no common s (d = 3 has one s)
        lines = [vector(d, row) for row in rand_invertible(rng, d)]
        scaled = BivectorMap.from_images(d, d, [wedge(lines[i], lines[j]).scale(i + 2 * j + 1)
                                                for i, j in pair_basis(d)])
        got = _recover_square_root(scaled)
        assert got == recover_square_root_by_spans(scaled) and (got is None) == (d > 3)
    star = BivectorMap.wedge_square(rand_invertible(rng, 4)).star_compose()
    assert _recover_square_root(star) is None is recover_square_root_by_spans(star)


# -- curvature forms ----------------------------------------------------------------------

def test_curvature_form_symmetry_class():
    form = CurvatureForm(metric_form_tensor([[2, 1, 0], [1, 3, 0], [0, 0, 1]]))
    assert check_imAS(pair_tableau(2), form.tensor)
    t = form.tensor
    assert permute(t, (2, 3, 0, 1)) == t  # exchange symmetry


def test_curvature_form_rejects_asymmetric_input():
    from projdyn.exactlin import Tensor

    bad = Tensor(4, 4, {(0, 1, 2, 3): 1, (1, 0, 2, 3): -1, (0, 1, 3, 2): -1, (1, 0, 3, 2): 1,
                        (2, 3, 0, 1): 2, (3, 2, 0, 1): -2, (2, 3, 1, 0): -2, (3, 2, 1, 0): 2})
    with pytest.raises(ValueError):
        CurvatureForm(bad)


def test_curvature_form_rejects_a_pair_exchange_symmetric_tensor_breaking_the_cyclic_identity():
    # e0^e1^e2^e3 is antisymmetric in each slot pair and symmetric under the
    # pair exchange, but its cyclic sum is three times itself
    from projdyn.exactlin import Tensor

    volume = Tensor(4, 4, {p: perm_sign(p) for p in itertools.permutations(range(4))})
    assert permute(volume, (2, 3, 0, 1)) == volume
    with pytest.raises(ValueError):
        CurvatureForm(volume)


def test_kernel_of_form():
    euclid = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert euclid.kernel() == []
    degenerate = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    assert same_subspace(degenerate.kernel(), [[0, 0, 1]])
    from projdyn.exactlin import Tensor

    zero = CurvatureForm(Tensor(3, 4, {}))
    assert len(zero.kernel()) == 3


def test_classify_euclid():
    rep = classify_curvature_form(CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
    assert rep.case == "metric"
    assert rep.witnesses["B"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rep.witnesses["epsilon"] == 1 and rep.witnesses["scale"] == 1


def test_classify_minkowski():
    rep = classify_curvature_form(CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, -1]])))
    assert rep.case == "metric"
    assert rep.witnesses["B"] == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert rep.witnesses["epsilon"] == 1


def test_classify_flat_case_round_trip():
    phi = [Fraction(0), Fraction(0), Fraction(1)]
    g = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    kb = kernel([phi])
    form = CurvatureForm(flat_form_tensor(phi, g, kb))
    rep = classify_curvature_form(form)
    assert rep.case == "flat"
    assert rep.witnesses["phi"] == phi
    assert rep.witnesses["g"] == g


def test_classify_rejects_nontrivial_kernel():
    degenerate = CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    with pytest.raises(KernelNotTrivialError):
        classify_curvature_form(degenerate)


def test_classify_rejects_decomposability_violation():
    # a generic combination of two metric forms in dim 4 violates the condition
    rng = random.Random(12)
    while True:
        t = metric_form_tensor(rand_symmetric_invertible(rng, 4)) + metric_form_tensor(
            rand_symmetric_invertible(rng, 4)
        ).scale(Fraction(1, 2))
        form = CurvatureForm(t)
        if form.kernel():
            continue
        if not form.satisfies_decomposability():
            break
    with pytest.raises(Eq91ViolationError):
        classify_curvature_form(form)


def test_classify_dim2():
    form = CurvatureForm(metric_form_tensor([[1, 0], [0, 1]]))
    assert classify_curvature_form(form).case == "dim2"


# -- the generator -------------------------------------------------------------------------

def test_curvature_from_symmetric_map_identity_dim3():
    form = curvature_from_symmetric_map([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = classify_curvature_form(form)
    assert rep.case == "metric"
    assert rep.witnesses["B"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_curvature_from_symmetric_map_full_rank_round_trip():
    rng = random.Random(13)
    for d in (3, 4, 5):
        G = rand_symmetric_invertible(rng, d)
        form = curvature_from_symmetric_map(G)
        assert form.kernel() == []
        rep = classify_curvature_form(form)
        assert rep.case == "metric"
        B = rep.witnesses["B"]
        prod = [[sum(B[i][k] * G[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        c = prod[0][0]
        assert c != 0
        assert all(prod[i][j] == (c if i == j else 0) for i in range(d) for j in range(d))


def test_curvature_from_symmetric_map_rank_n_gives_flat():
    rng = random.Random(14)
    for d in (3, 4):
        G = rand_symmetric_rank(rng, d, d - 1)
        form = curvature_from_symmetric_map(G)
        assert form.kernel() == []
        rep = classify_curvature_form(form)
        assert rep.case == "flat"
        # [phi] = ker G
        assert same_subspace([rep.witnesses["phi"]], kernel(G))


def test_curvature_from_symmetric_map_low_rank_has_kernel():
    form = curvature_from_symmetric_map([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert len(form.kernel()) >= 1


def test_curvature_from_symmetric_map_specific_diag():
    G = [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 5, 0], [0, 0, 0, 7]]
    form = curvature_from_symmetric_map(G)
    rep = classify_curvature_form(form)
    assert rep.case == "metric"
    B = rep.witnesses["B"]
    # B proportional to diag(1/2, 1/3, 1/5, 1/7); normalized so B[0][0] = 1
    assert B == [
        [1, 0, 0, 0],
        [0, Fraction(2, 3), 0, 0],
        [0, 0, Fraction(2, 5), 0],
        [0, 0, 0, Fraction(2, 7)],
    ]


def test_make_R_requires_symmetric():
    with pytest.raises(ValueError):
        curvature_from_symmetric_map([[0, 1, 0], [0, 0, 0], [0, 0, 1]])


def test_dim4_pencil_types_have_dimension_three():
    # the two maximal families of decomposables in dim 4 both have dimension 3
    from projdyn.exactlin import rank as mat_rank

    d = 4
    prs = pair_basis(d)
    idx = {pr: k for k, pr in enumerate(prs)}
    pencil = []  # [e0] ^ V
    for k in range(1, d):
        row = [Fraction(0)] * len(prs)
        row[idx[(0, k)]] = 1
        pencil.append(row)
    plane = []  # wedge square of F = span{e0, e1, e2}
    for pr in ((0, 1), (0, 2), (1, 2)):
        row = [Fraction(0)] * len(prs)
        row[idx[pr]] = 1
        plane.append(row)
    assert mat_rank(pencil) == 3 and mat_rank(plane) == 3


# -- serialization ------------------------------------------------------------------------------

def test_bivector_map_json_round_trip():
    rng = random.Random(15)
    R = BivectorMap.wedge_square(rand_invertible(rng, 4))
    back = BivectorMap.from_json(R.to_json())
    assert back.matrix == R.matrix


def test_curvature_form_json_round_trip():
    form = CurvatureForm(metric_form_tensor([[1, 2, 0], [2, 1, 0], [0, 0, 3]]))
    back = CurvatureForm.from_json(form.to_json())
    assert back.tensor == form.tensor


def test_classification_report_json():
    rep = classify_curvature_form(CurvatureForm(metric_form_tensor([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
    obj = rep.to_json()
    assert obj["case"] == "metric"
    assert obj["witnesses"]["B"] == [["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"]]
