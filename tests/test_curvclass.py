"""Decomposability preservation, wedge-power maps, and the classification."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projdyn.curvclass import (
    BivectorMap,
    CurvatureForm,
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
from projdyn.exactlin import accumulate, basis_multivector, det, kernel, perm_sign, same_subspace, vector, wedge
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
    img = R.apply(pi)
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


# -- wedge power maps --------------------------------------------------------------

def test_wedge_power_identity():
    d = 4
    eye = BivectorMap.wedge_square([[Fraction(int(i == j)) for j in range(d)] for i in range(d)])
    p2 = wedge_power_map(eye, 2)
    vol = basis_multivector(4, (0, 1, 2, 3))
    assert p2.apply(vol) == vol


def test_wedge_power_of_wedge_square():
    rng = random.Random(3)
    B = rand_invertible(rng, 4)
    R = BivectorMap.wedge_square(B)
    p2 = wedge_power_map(R, 2)
    # on the volume element the power map multiplies by det(B)
    vol = basis_multivector(4, (0, 1, 2, 3))
    assert p2.apply(vol) == vol.scale(det(B))


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
        assert p2.apply(wedge(pi1, pi2)) == wedge(R.apply(pi1), R.apply(pi2))


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
            assert Rinv.apply(R.apply(pi)) == pi


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


# -- curvature forms ----------------------------------------------------------------------

def test_curvature_form_symmetry_class():
    form = CurvatureForm(metric_form_tensor([[2, 1, 0], [1, 3, 0], [0, 0, 1]]))
    assert check_imAS(pair_tableau(2), form.tensor)
    t = form.tensor
    assert t.permute((2, 3, 0, 1)) == t  # exchange symmetry


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
    assert volume.permute((2, 3, 0, 1)) == volume
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
