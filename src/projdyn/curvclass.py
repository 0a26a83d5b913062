"""Linear maps of bivectors that preserve decomposability, and their
classification.

A linear map R between second exterior powers preserves decomposability
when R(x ^ y) ^ R(x ^ y) = 0 identically; this module decides that exactly
(full coefficient expansion of the biquadratic form), builds the induced
maps on higher wedge powers, and classifies such maps into the degenerate
cases (a common wedge factor or a common contraction annihilator), the
wedge squares of invertible linear maps, and the dimension-4 star
composition.  The symmetric specialization classifies curvature-type
quadrilinear forms into the metric case and the flat (hyperplane) case,
with every returned witness re-verified against its defining identity
before the report is returned.

Exact rational arithmetic throughout: the case distinctions here are rank
decisions that rounding would corrupt.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from projdyn.exactlin import (
    JsonValue,
    Multivector,
    Tensor,
    basis_multivector,
    clear_denominators,
    contract,
    contract_multivector,
    det,
    format_rational,
    intersect_spans,
    kernel,
    multivector_to_json,
    rank,
    rat,
    solve,
    sort_with_sign,
    support,
    tensor_from_json,
    tensor_to_json,
    wedge,
)
from projdyn.polyintegrals import AntisymmetricForm


class DecomposabilityError(ValueError):
    """The map does not send decomposable bivectors to decomposable ones
    (the defining biquadratic identity fails)."""


class KernelNotTrivialError(ValueError):
    """The curvature form has vectors annihilating it; reduce through the
    quotient before classifying."""


def pair_basis(dim):
    return list(itertools.combinations(range(dim), 2))


def pair_index(dim):
    return {pr: k for k, pr in enumerate(pair_basis(dim))}


class BivectorMap:
    """Linear map between second exterior powers as an exact matrix.

    Columns follow the lexicographic pair basis of the source, rows the pair
    basis of the destination.  No symmetry is assumed.
    """

    def __init__(self, dim_src, dim_dst, matrix):
        self.dim_src = dim_src
        self.dim_dst = dim_dst
        self.src_pairs = pair_basis(dim_src)
        self.dst_pairs = pair_basis(dim_dst)
        if len(matrix) != len(self.dst_pairs) or any(len(row) != len(self.src_pairs) for row in matrix):
            raise ValueError("matrix shape does not match the pair bases")
        self.matrix = [[rat(x) for x in row] for row in matrix]
        self._pair_col = pair_index(dim_src)

    @classmethod
    def from_images(cls, dim_src, dim_dst, images):
        """Build from the list of images of the source pair basis."""
        dst_pairs = pair_basis(dim_dst)
        matrix = [
            [img.coords.get(pr, Fraction(0)) for img in images]
            for pr in dst_pairs
        ]
        return cls(dim_src, dim_dst, matrix)

    @classmethod
    def wedge_square(cls, B):
        """R(x ^ y) = B(x) ^ B(y) for a linear map given as a matrix whose
        columns are the images of the basis vectors."""
        dim_dst = len(B)
        dim_src = len(B[0])
        cols = [[rat(B[r][c]) for r in range(dim_dst)] for c in range(dim_src)]
        images = []
        for a, b in pair_basis(dim_src):
            va = Multivector(dim_dst, 1, {(i,): cols[a][i] for i in range(dim_dst) if cols[a][i]})
            vb = Multivector(dim_dst, 1, {(i,): cols[b][i] for i in range(dim_dst) if cols[b][i]})
            images.append(wedge(va, vb))
        return cls.from_images(dim_src, dim_dst, images)

    def image_of_basis_pair(self, a, b) -> Multivector:
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        col = self._pair_col[(a, b)]
        coords = {pr: self.matrix[r][col] * sign for r, pr in enumerate(self.dst_pairs) if self.matrix[r][col]}
        return Multivector(self.dim_dst, 2, coords)

    def apply(self, pi: Multivector) -> Multivector:
        if pi.dim != self.dim_src or pi.grade != 2:
            raise ValueError("input must be a bivector over the source space")
        out = Multivector(self.dim_dst, 2, {})
        for pr, val in pi.coords.items():
            out = out + self.image_of_basis_pair(*pr).scale(val)
        return out

    def rank(self) -> int:
        return rank(self.matrix)

    def is_invertible(self) -> bool:
        return self.dim_src == self.dim_dst and self.rank() == len(self.src_pairs)

    def star_compose(self):
        """Compose with the volume pairing on the destination: pi -> R(pi) -| vol,
        landing in 2-forms over the destination (same pair indexing)."""
        vol = basis_multivector(self.dim_dst, tuple(range(self.dim_dst)))
        images = [
            contract_multivector(self.image_of_basis_pair(*pr), vol)
            for pr in self.src_pairs
        ]
        return BivectorMap.from_images(self.dim_src, self.dim_dst, images)

    def to_json(self):
        return {
            "dim_src": self.dim_src,
            "dim_dst": self.dim_dst,
            "matrix": [[format_rational(x) for x in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, obj):
        r = JsonValue.of(obj, "bivector map")
        src, dst = r.integer("dim_src", low=1), r.integer("dim_dst", low=1)
        rows = [row.rationals(n=src * (src - 1) // 2) for row in r.items("matrix", dst * (dst - 1) // 2)]
        return cls(src, dst, rows)


# ---------------------------------------------------------------------------
# the decomposability-preservation test

def preserves_decomposables(R: BivectorMap) -> bool:
    """True iff R(x^y) ^ R(x^y) = 0 identically in (x, y).

    Decided exactly by expanding the 4-form-valued biquadratic polynomial in
    the coordinates of x and y and checking every coefficient.  The verdict
    is invariant under scaling R, so the expansion runs on the integer
    matrix den * R.  The products of the images of two basis pairs commute,
    so each unordered pair is wedged once, with weight 2 off the diagonal.
    Sources of dimension 3 always pass (every bivector there is
    decomposable).
    """
    ints, _ = clear_denominators([x for row in R.matrix for x in row])
    ncols = len(R.src_pairs)
    images = [
        [(pr, ints[r * ncols + col]) for r, pr in enumerate(R.dst_pairs) if ints[r * ncols + col]]
        for col in range(ncols)
    ]
    coeffs = {}
    for k1, (a, b) in enumerate(R.src_pairs):
        for k2 in range(k1, ncols):
            c, d = R.src_pairs[k2]
            weight = 1 if k1 == k2 else 2
            # p_ab p_cd = sum of signed degree-(2,2) monomials in (x, y)
            monomials = [
                ((tuple(sorted(xm)), tuple(sorted(ym))), sign * weight)
                for xm, ym, sign in (
                    ((a, c), (b, d), 1),
                    ((a, d), (b, c), -1),
                    ((b, c), (a, d), -1),
                    ((b, d), (a, c), 1),
                )
            ]
            for pu, u in images[k1]:
                for pv, v in images[k2]:
                    idx, sign = sort_with_sign(pu + pv)
                    if sign:
                        uv = sign * u * v
                        for mono, s in monomials:
                            key = (mono, idx)
                            coeffs[key] = coeffs.get(key, 0) + s * uv
    return not any(coeffs.values())


def _matchings(indices):
    """All perfect matchings of an even index tuple, with the sign of the
    corresponding permutation relative to the sorted order."""
    indices = tuple(indices)
    if not indices:
        yield (), 1
        return
    first = indices[0]
    rest = indices[1:]
    for k, second in enumerate(rest):
        remaining = rest[:k] + rest[k + 1:]
        sign = (-1) ** k
        for sub, sub_sign in _matchings(remaining):
            yield ((first, second),) + sub, sign * sub_sign


class WedgePowerMap:
    """The induced map on 2p-vectors sending pi_1 ^ ... ^ pi_p to
    R(pi_1) ^ ... ^ R(pi_p)."""

    def __init__(self, R: BivectorMap, p: int, images: dict):
        self.R = R
        self.p = p
        self.images = images  # 2p-subset tuple -> Multivector over dst

    def apply(self, m: Multivector) -> Multivector:
        if m.grade != 2 * self.p or m.dim != self.R.dim_src:
            raise ValueError("grade/dim mismatch")
        out = Multivector(self.R.dim_dst, 2 * self.p, {})
        for idx, val in m.coords.items():
            out = out + self.images[idx].scale(val)
        return out

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())


def wedge_power_map(R: BivectorMap, p: int) -> WedgePowerMap:
    """Construct the induced map on 2p-vectors, verifying well-definedness on
    the spanning decomposables: every pairing of every basis 2p-subset must
    produce the same image.  Raises DecomposabilityError when the map does
    not preserve decomposability (the product formula is then inconsistent).
    """
    if 2 * p > min(R.dim_src, R.dim_dst):
        raise ValueError("wedge power exceeds the dimension")
    if not preserves_decomposables(R):
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
    return WedgePowerMap(R, p, images)


# ---------------------------------------------------------------------------
# classification of decomposability-preserving maps

def witnesses_to_json(witnesses: dict) -> dict:
    """Serialize report witnesses: multivectors as JSON, rationals (alone,
    in vectors or in matrices) as 'p/q' strings, anything else as is."""
    out = {}
    for key, val in witnesses.items():
        if isinstance(val, Multivector):
            out[key] = multivector_to_json(val)
        elif isinstance(val, (list, tuple)) and val and isinstance(val[0], (list, tuple)):
            out[key] = [[format_rational(x) for x in row] for row in val]
        elif isinstance(val, (list, tuple)):
            out[key] = [format_rational(x) for x in val]
        elif isinstance(val, (int, Fraction)):
            out[key] = format_rational(val)
        else:
            out[key] = val
    return out


class ClassificationReport:
    """Case tag plus exact witnesses; every witness satisfies its defining
    identity (re-verified before the report is produced)."""

    def __init__(self, case, witnesses, checks):
        self.case = case
        self.witnesses = witnesses
        self.checks = list(checks)

    def __repr__(self):
        return f"ClassificationReport(case={self.case!r})"

    def to_json(self):
        return {"case": self.case, "checks": self.checks, "witnesses": witnesses_to_json(self.witnesses)}


def _normalize(vec):
    lead = next((x for x in vec if x), None)
    if lead is None:
        return list(vec)
    return [x / lead for x in vec]


def _normalize_matrix(mat):
    """Scale so the first nonzero entry (row-major) is +1; returns (matrix, factor)."""
    lead = None
    for row in mat:
        for x in row:
            if x:
                lead = x
                break
        if lead is not None:
            break
    if lead is None:
        return [list(r) for r in mat], Fraction(1)
    return [[x / lead for x in row] for row in mat], lead


def _wedge_annihilator(R: BivectorMap):
    """Nonzero phi in the destination with R(pi) ^ phi = 0 for all pi, or None."""
    d = R.dim_dst
    rows = []
    for pr in R.src_pairs:
        img = R.image_of_basis_pair(*pr)
        if img.is_zero():
            continue
        for t1, t2, t3 in itertools.combinations(range(d), 3):
            row = [Fraction(0)] * d
            row[t3] += img[(t1, t2)]
            row[t2] -= img[(t1, t3)]
            row[t1] += img[(t2, t3)]
            if any(row):
                rows.append(row)
    if not rows:
        return [Fraction(1)] + [Fraction(0)] * (d - 1)  # the zero map: anything works
    basis = kernel(rows)
    return _normalize(basis[0]) if basis else None


def _contraction_annihilator(R: BivectorMap):
    """Nonzero zeta (destination dual) with zeta -| R(pi) = 0 for all pi, or None."""
    d = R.dim_dst
    rows = []
    for pr in R.src_pairs:
        img = R.image_of_basis_pair(*pr)
        if img.is_zero():
            continue
        for j in range(d):
            row = [img[(i, j)] for i in range(d)]  # j-th component of zeta -| img
            if any(row):
                rows.append(row)
    if not rows:
        return [Fraction(1)] + [Fraction(0)] * (d - 1)
    basis = kernel(rows)
    return _normalize(basis[0]) if basis else None


def _recover_square_root(R: BivectorMap):
    """For an invertible map of wedge-square type, recover (B, epsilon, scale)
    with R = epsilon * scale * B^2 on bivectors and B normalized; None when
    the images of the hyperplane pencils are not of the common-line type."""
    d = R.dim_src
    if d == 2:
        m = R.matrix[0][0]
        if not m:
            return None
        eps = 1 if m > 0 else -1
        return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], eps, abs(m)
    lines = []
    for i in range(d):
        spans = []
        for k in range(d):
            if k == i:
                continue
            img = R.image_of_basis_pair(i, k)
            if img.is_zero():
                return None
            spans.append(support(img))
        inter = intersect_spans(spans)
        if len(inter) != 1:
            return None
        lines.append(_normalize(inter[0]))
    m = {}
    for i, j in itertools.combinations(range(d), 2):
        img = R.image_of_basis_pair(i, j)
        w = wedge(
            Multivector(R.dim_dst, 1, {(a,): lines[i][a] for a in range(d) if lines[i][a]}),
            Multivector(R.dim_dst, 1, {(a,): lines[j][a] for a in range(d) if lines[j][a]}),
        )
        if w.is_zero():
            return None
        key = next(iter(w.coords))
        ratio = img[key] / w[key]
        if not ratio or img != w.scale(ratio):
            return None
        m[(i, j)] = ratio
    s = None
    for i, j in itertools.combinations(range(1, d), 2):
        s_ij = m[(0, i)] * m[(0, j)] / m[(i, j)]
        if s is None:
            s = s_ij
        elif s != s_ij:
            return None
    coeffs = [Fraction(1)] + [m[(0, j)] / s for j in range(1, d)]
    B = [[lines[j][a] * coeffs[j] for j in range(d)] for a in range(d)]  # column j = c_j w_j
    B_norm, lead = _normalize_matrix(B)
    s_norm = s * lead * lead
    eps = 1 if s_norm > 0 else -1
    return B_norm, eps, abs(s_norm)


def _verify_wedge_square(R, B, factor):
    check = BivectorMap.wedge_square(B)
    return all(
        R.matrix[r][c] == factor * check.matrix[r][c]
        for r in range(len(R.dst_pairs))
        for c in range(len(R.src_pairs))
    )


def classify_bivector_map(R: BivectorMap) -> ClassificationReport:
    """Total classification of a decomposability-preserving map between
    equal-dimensional spaces; case precedence is (common wedge factor) >
    (common contraction annihilator) > (wedge square) > (dim-4 star case).

    Every returned witness is verified exactly against its defining identity;
    reaching no case signals a violated precondition.
    """
    if R.dim_src != R.dim_dst:
        raise ValueError("classification needs equal source and destination dimensions")
    if not preserves_decomposables(R):
        raise DecomposabilityError("map does not preserve decomposable bivectors")
    d = R.dim_src
    checks = ["decomposability preservation verified by full expansion"]

    phi = _wedge_annihilator(R)
    if phi is not None:
        phi_mv = Multivector(d, 1, {(i,): x for i, x in enumerate(phi) if x})
        for pr in R.src_pairs:
            if not wedge(R.image_of_basis_pair(*pr), phi_mv).is_zero():
                raise ArithmeticError("wedge annihilator failed verification")
        checks.append("R(pi) ^ phi = 0 verified on the full pair basis")
        return ClassificationReport("phi_degenerate", {"phi": phi}, checks)

    zeta = _contraction_annihilator(R)
    if zeta is not None:
        for pr in R.src_pairs:
            if not contract(zeta, R.image_of_basis_pair(*pr)).is_zero():
                raise ArithmeticError("contraction annihilator failed verification")
        checks.append("zeta -| R(pi) = 0 verified on the full pair basis")
        return ClassificationReport("zeta_degenerate", {"zeta": zeta}, checks)

    if not R.is_invertible():
        raise ArithmeticError(
            "non-invertible map without a degenerate witness: precondition violated"
        )

    rec = _recover_square_root(R)
    if rec is not None:
        B, eps, scale = rec
        if not _verify_wedge_square(R, B, eps * scale):
            raise ArithmeticError("recovered wedge square failed verification")
        checks.append("R = eps * scale * B^2 verified on the full pair basis")
        return ClassificationReport(
            "wedge_square", {"B": B, "epsilon": eps, "scale": scale}, checks
        )

    if d == 4:
        starred = R.star_compose()
        rec = _recover_square_root(starred)
        if rec is not None:
            C, eps, scale = rec
            mu = basis_multivector(4, (0, 1, 2, 3)).scale(Fraction(eps) * scale)
            check_map = BivectorMap.wedge_square(C)
            for pr in R.src_pairs:
                expected = contract_multivector(check_map.image_of_basis_pair(*pr), mu)
                if expected != R.image_of_basis_pair(*pr):
                    raise ArithmeticError("star wedge square failed verification")
            checks.append("R(x^y) = (C x ^ C y) -| mu verified on the full pair basis")
            return ClassificationReport("star_wedge_square", {"C": C, "mu": mu}, checks)

    raise ArithmeticError("no classification case verified: precondition violated or bug")


# ---------------------------------------------------------------------------
# curvature-type forms (the symmetric specialization)

class CurvatureForm:
    """Order-4 form with the curvature symmetries: pair antisymmetries and
    the cyclic identity, i.e. Im AS of the 2x2 vertical tableau, checked once
    on construction.  The class implies the pair-exchange symmetry that makes
    the induced map from bivectors to 2-forms symmetric."""

    def __init__(self, tensor: Tensor):
        if tensor.order != 4:
            raise ValueError("curvature forms have order 4")
        self.form = AntisymmetricForm(tensor.dim, 2, tensor)

    @property
    def dim(self):
        return self.form.dim

    @property
    def tensor(self):
        return self.form.tensor

    @classmethod
    def from_antisymmetric(cls, af: AntisymmetricForm):
        """Wrap a degree-2 form, whose constructor verified the class."""
        if af.b != 2:
            raise ValueError("need a degree-2 pair-antisymmetric form")
        out = cls.__new__(cls)
        out.form = af
        return out

    def value(self, u, v, w, x) -> Fraction:
        return self.tensor.entries.get((u, v, w, x), Fraction(0))

    def bivector_map(self) -> BivectorMap:
        """The induced map into 2-forms: the (w, x) component of the image of
        e_u ^ e_v is the tensor value at (u, v, w, x)."""
        d = self.dim
        prs = pair_basis(d)
        matrix = [[self.value(u, v, w, x) for (u, v) in prs] for (w, x) in prs]
        return BivectorMap(d, d, matrix)

    def satisfies_decomposability(self) -> bool:
        return preserves_decomposables(self.bivector_map())

    def kernel(self):
        """Exact kernel of u -> R_A(u, ., ., .) as a list of basis vectors."""
        return self.form.kernel()

    def diagonal_poly(self):
        return self.form.diagonal_poly()

    def to_json(self):
        out = tensor_to_json(self.tensor)
        out["symmetry"] = "riemann"
        return out

    @classmethod
    def from_json(cls, obj):
        r = JsonValue.of(obj, "curvature form")
        r.choice("symmetry", ("riemann",))
        return cls(tensor_from_json(r))


def metric_form_tensor(b_matrix) -> Tensor:
    """The curvature form of a symmetric bilinear form:
    R(u,v;w,x) = b(u,w) b(v,x) - b(u,x) b(v,w)."""
    d = len(b_matrix)
    b = [[rat(x) for x in row] for row in b_matrix]
    entries = {}
    for u, v, w, x in itertools.product(range(d), repeat=4):
        val = b[u][w] * b[v][x] - b[u][x] * b[v][w]
        if val:
            entries[(u, v, w, x)] = val
    return Tensor(d, 4, entries)


def flat_form_tensor(phi, g_matrix, kernel_basis) -> Tensor:
    """The flat-case curvature form
    R(u,v;w,x) = g(phi -| (u ^ v), phi -| (w ^ x)) with g given in the
    coordinates of a basis of ker(phi)."""
    d = len(phi)
    phi = [rat(x) for x in phi]
    g = [[rat(x) for x in row] for row in g_matrix]
    kb = [[rat(x) for x in vec] for vec in kernel_basis]
    kmat = [[kb[j][i] for j in range(len(kb))] for i in range(d)]

    def contracted_in_kernel_coords(u, v):
        vec = [Fraction(0)] * d
        vec[v] += phi[u]
        vec[u] -= phi[v]
        sol = solve(kmat, vec)
        if sol is None:
            raise ValueError("contracted pair left ker(phi): inconsistent witness data")
        return sol

    cache = {}
    for u, v in itertools.product(range(d), repeat=2):
        cache[(u, v)] = contracted_in_kernel_coords(u, v)
    entries = {}
    for u, v in itertools.product(range(d), repeat=2):
        cu = cache[(u, v)]
        for w, x in itertools.product(range(d), repeat=2):
            cw = cache[(w, x)]
            val = Fraction(0)
            for a in range(len(kb)):
                if not cu[a]:
                    continue
                for c in range(len(kb)):
                    if g[a][c] and cw[c]:
                        val += g[a][c] * cu[a] * cw[c]
            if val:
                entries[(u, v, w, x)] = val
    return Tensor(d, 4, entries)


class Eq91ViolationError(ValueError):
    """The curvature form does not satisfy the decomposability condition on
    its image 2-forms."""


def classify_curvature_form(form: CurvatureForm) -> ClassificationReport:
    """Classify a trivial-kernel curvature form satisfying the
    decomposability condition: the metric case (invertible symmetric map
    with R = eps * scale * B^2) or the flat case (hyperplane covector phi
    with a non-degenerate quadratic form on its kernel); dimension 2 returns
    the bare dim2 tag.  The complete defining formula is re-verified on all
    basis tuples before the report is returned."""
    d = form.dim
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if d == 2:
        return ClassificationReport("dim2", {}, ["dimension 2: no structure witnessed"])
    if not form.satisfies_decomposability():
        raise Eq91ViolationError("form violates the decomposability condition")
    if form.kernel():
        raise KernelNotTrivialError("form has a nontrivial kernel; quotient first")
    R = form.bivector_map()
    checks = ["decomposability condition verified", "trivial kernel verified"]

    if R.is_invertible():
        rec = _recover_square_root(R)
        if rec is None:
            raise ArithmeticError(
                "invertible curvature map is not a wedge square; the star case is"
                " excluded by the cyclic identity, so this is a bug"
            )
        B, eps, scale = rec
        if B != [list(row) for row in zip(*B)]:
            raise ArithmeticError("recovered metric is not symmetric")
        expected = metric_form_tensor(B).scale(Fraction(eps) * scale)
        if expected != form.tensor:
            raise ArithmeticError("metric witness failed the full formula check")
        checks.append("R(u,v;w,x) = eps*scale*(b(u,w)b(v,x)-b(u,x)b(v,w)) verified")
        return ClassificationReport("metric", {"B": B, "epsilon": eps, "scale": scale}, checks)

    phi = _wedge_annihilator(R)
    if phi is None:
        raise ArithmeticError("non-invertible curvature map with no wedge annihilator: bug")
    k = next(i for i, x in enumerate(phi) if x)
    u_vec = [Fraction(0)] * d
    u_vec[k] = 1 / phi[k]
    kernel_basis = kernel([phi])
    g = []
    for ka in kernel_basis:
        row = []
        for kb in kernel_basis:
            val = Fraction(0)
            for (uu, vv, ww, xx), tval in form.tensor.entries.items():
                c = u_vec[uu] * ka[vv] * u_vec[ww] * kb[xx]
                if c:
                    val += tval * c
            row.append(val)
        g.append(row)
    if det(g) == 0:
        raise ArithmeticError("flat-case quadratic form is degenerate despite trivial kernel")
    if g != [list(row) for row in zip(*g)]:
        raise ArithmeticError("flat-case bilinear form is not symmetric")
    expected = flat_form_tensor(phi, g, kernel_basis)
    if expected != form.tensor:
        raise ArithmeticError("flat witness failed the full formula check")
    checks.append("R(u,v;w,x) = g(phi -| (u^v), phi -| (w^x)) verified on all basis tuples")
    return ClassificationReport(
        "flat", {"phi": phi, "g": g, "kernel_of_phi": kernel_basis}, checks
    )


# ---------------------------------------------------------------------------
# the symmetric-map generator

def _compound_matrix(G, k):
    """k-th compound (matrix of k x k minors): the induced action on the k-th
    exterior power, rows/cols indexed by increasing k-subsets."""
    d = len(G)
    subsets = list(itertools.combinations(range(d), k))
    out = []
    for S in subsets:
        row = []
        for T in subsets:
            sub = [[G[i][j] for j in T] for i in S]
            row.append(det(sub))
        out.append(row)
    return out, subsets


def curvature_from_symmetric_map(G, vol_scale=1) -> CurvatureForm:
    """Curvature form from a symmetric map of the dual space into the space:
    conjugate the (n-1)-th wedge power of G by the volume pairing.

    The result always satisfies the decomposability condition; its kernel is
    trivial exactly when rank(G) >= n.  Full-rank G lands in the metric case
    with the inverse of G as the metric, rank-n G in the flat case with the
    kernel line of G as the hyperplane direction (claims exercised by the
    round-trip tests rather than assumed).
    """
    d = len(G)
    if d < 3:
        raise ValueError("dimension must be at least 3")
    G = [[rat(x) for x in row] for row in G]
    if G != [list(row) for row in zip(*G)]:
        raise ValueError("G must be symmetric")
    n = d - 1
    vol = basis_multivector(d, tuple(range(d))).scale(rat(vol_scale))
    comp, subsets = _compound_matrix(G, n - 1)
    entries = {}
    for (a, b) in pair_basis(d):
        omega = contract_multivector(basis_multivector(d, (a, b)), vol)
        coords_in = [omega.coords.get(S, Fraction(0)) for S in subsets]
        coords_out = [
            sum(comp[r][c] * coords_in[c] for c in range(len(subsets)))
            for r in range(len(subsets))
        ]
        sigma = Multivector(d, n - 1, {S: coords_out[i] for i, S in enumerate(subsets) if coords_out[i]})
        img = contract_multivector(sigma, vol)
        for (w, x), val in img.coords.items():
            for uu, vv, sgn_uv in ((a, b, 1), (b, a, -1)):
                for ww, xx, sgn_wx in ((w, x, 1), (x, w, -1)):
                    entries[(uu, vv, ww, xx)] = val * sgn_uv * sgn_wx
    form = CurvatureForm(Tensor(d, 4, entries))
    if not form.satisfies_decomposability():
        raise ArithmeticError("generated form violates the decomposability condition")
    return form
