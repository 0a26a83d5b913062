"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Exact criteria are decided in rational arithmetic; numerical
criteria use the stated tolerances.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from projdyn import compat as cp
from projdyn import curvclass as cc
from projdyn import polyintegrals as pin
from oracles import (
    bianchi_sum_AS,
    compatibility_on_tangent_pairs,
    compatibility_repeated_argument,
    partitions,
    same_subspace,
    substitute_v_minus_q,
)
from projdyn import screens as sc
from projdyn import young
from projdyn.exactlin import (
    SparseEchelon,
    Tensor,
    basis_tensor,
    kernel,
)
from projdyn.polynomials import Poly
from projdyn.polyintegrals import ScreenIntegral, qvar, vvar
from projdyn.young import YoungTableau


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: PASS {detail}")


# ---------------------------------------------------------------------------
# 1. the scalar identity of the symmetrizers

def test_criterion_01_young_scalar_identity():
    """ASAS = lambda AS and SASA = lambda SA, same positive integer lambda,
    for every tableau with at most 6 boxes over dimensions 2..5.

    The identity is established exactly in the group algebra of S_N, which
    forces equality of the induced operators on every basis tensor of every
    dimension (the action phi[idx] -> phi[idx o sigma] is an algebra
    homomorphism); the action itself is then verified exhaustively on all
    basis tensors at small sizes and on random basis tensors at the largest,
    all in exact arithmetic.
    """
    rng = random.Random(20250)
    shapes = [shape for n in range(1, 7) for shape in partitions(n)]
    checked_shapes = 0
    exhaustive = 0
    sampled = 0
    for shape in shapes:
        for numbering in ("horizontal", "vertical"):
            tab = YoungTableau(shape, numbering)
            lam = young.young_scalar(tab)  # verifies both identities exactly
            assert lam > 0
            S = young.symmetrizer_element(tab)
            A = young.antisymmetrizer_element(tab)
            AS = young.compose_elements(A, S)
            SA = young.compose_elements(S, A)
            ASAS = young.compose_elements(AS, AS)
            SASA = young.compose_elements(SA, SA)

            def inverses(elem):
                out = []
                for sigma, coef in elem.items():
                    inv = [0] * len(sigma)
                    for k, pos in enumerate(sigma):
                        inv[pos] = k
                    out.append((tuple(inv), coef))
                return out

            def act(invs, jdx):
                # integer action on a basis tensor: entry jdx lands at jdx o sigma^-1
                out = {}
                getter = jdx.__getitem__
                for inv, coef in invs:
                    key = tuple(map(getter, inv))
                    s = out.get(key, 0) + coef
                    if s:
                        out[key] = s
                    else:
                        del out[key]
                return out

            inv_AS, inv_SA = inverses(AS), inverses(SA)
            inv_ASAS, inv_SASA = inverses(ASAS), inverses(SASA)
            N = tab.size
            for dim in range(2, 6):
                n_basis = dim ** N
                if n_basis <= 700:
                    idx_iter = itertools.product(range(dim), repeat=N)
                    exhaustive += 1
                else:
                    idx_iter = (
                        tuple(rng.randrange(dim) for _ in range(N)) for _ in range(25)
                    )
                    sampled += 1
                for idx in idx_iter:
                    assert act(inv_ASAS, idx) == {k: lam * v for k, v in act(inv_AS, idx).items()}
                    assert act(inv_SASA, idx) == {k: lam * v for k, v in act(inv_SA, idx).items()}
            checked_shapes += 1
            # the library tensor action agrees with the integer action
            probe = tuple(rng.randrange(2) for _ in range(tab.size))
            lib = young.apply_element(ASAS, basis_tensor(2, probe))
            assert lib.entries == {k: Fraction(v) for k, v in act(inv_ASAS, probe).items()}
    report(
        1,
        "Young scalar identity",
        f"({checked_shapes} tableaux; group-algebra exact; "
        f"{exhaustive} exhaustive + {sampled} sampled basis sweeps)",
    )


# ---------------------------------------------------------------------------
# 2. the dimension formula

def _rank_mod_p(rows_dict, col_index, p=2147483647):
    """Rank over F_p of a sparse integer matrix given as row dicts."""
    if not rows_dict:
        return 0
    mat = np.zeros((len(rows_dict), len(col_index)), dtype=np.int64)
    for r, row in enumerate(rows_dict):
        for col, val in row.items():
            mat[r, col_index[col]] = int(val) % p
    rank_count = 0
    r = 0
    rows_n, cols_n = mat.shape
    for c in range(cols_n):
        piv = None
        for i in range(r, rows_n):
            if mat[i, c] % p:
                piv = i
                break
        if piv is None:
            continue
        mat[[r, piv]] = mat[[piv, r]]
        inv = pow(int(mat[r, c]), p - 2, p)
        mat[r] = (mat[r] * inv) % p
        col_vals = mat[r + 1:, c].copy()
        nz = np.nonzero(col_vals)[0]
        if len(nz):
            mat[r + 1 + nz] = (mat[r + 1 + nz] - col_vals[nz, None] * mat[r][None, :]) % p
        rank_count += 1
        r += 1
        if r == rows_n:
            break
    return rank_count


def test_criterion_02_dimension_formula():
    """The exact rank of the shear-invariance constraint system on
    bidegree-(b,b) polynomials leaves a solution space of dimension
    n (n+1)^2 ... (n+b-1)^2 (n+b) / (b! (b+1)!) for ambient dimensions
    2..4 and degrees 1..3.

    Certification is two-sided and exact: every product of impulsion
    coordinates is checked against the constraints in rational arithmetic
    (rank <= M - span), and elimination modulo a large prime bounds the rank
    from below (a nonzero minor mod p is nonzero over the rationals); the
    bounds meet at the formula value.
    """
    for d in (2, 3, 4):
        n = d - 1
        for b in (1, 2, 3):
            monos = [
                exps
                for exps in itertools.product(range(b + 1), repeat=2 * d)
                if sum(exps[:d]) == b and sum(exps[d:]) == b
            ]
            col_index = {m: i for i, m in enumerate(monos)}
            M = len(monos)
            rows = {}
            for m in monos:
                defect = pin.shear_defect(Poly.monomial(m), d)
                for exps, coef in defect.terms.items():
                    key = exps  # includes the gamma power: one row per target monomial
                    assert coef.denominator == 1
                    rows.setdefault(key, {})[m] = coef.numerator
            row_list = list(rows.values())
            # exact upper bound on the rank: the impulsion products solve everything
            span = pin.impulsion_poly_basis(d, b)
            for p_poly in span:
                assert pin.shear_defect(p_poly, d).is_zero()
            span_dim = len(span)
            rank_lower = _rank_mod_p(row_list, col_index)
            assert rank_lower == M - span_dim, (d, b)
            # the sandwich closes: rank over Q is exactly M - span_dim
            assert span_dim == pin.dim_Pbb(n, b), (d, b)
    assert pin.dim_Pbb(2, 2) == 6
    assert pin.dim_Pbb(3, 2) == 20
    report(2, "dimension formula", "(ambient 2-4, degrees 1-3, certified exact rank)")


# ---------------------------------------------------------------------------
# 3. the membership characterization cuts out exactly the symmetry class

def _pair_antisym_basis(tab, dim):
    """Basis tensors of the column-antisymmetry solution space: one signed
    orbit sum per strictly increasing index choice in each column."""
    cols = tab.column_slots()
    n = tab.size
    out = []
    for combo in itertools.product(*[itertools.combinations(range(dim), len(s)) for s in cols]):
        entries = {}
        for signed in itertools.product(*[itertools.permutations(values) for values in combo]):
            idx = [0] * n
            sign = 1
            for slots, values, chosen in zip(cols, combo, signed):
                from projdyn.exactlin import sort_with_sign

                _, s = sort_with_sign(chosen)
                sign *= s
                for slot, v in zip(slots, chosen):
                    idx[slot] = v
            entries[tuple(idx)] = Fraction(sign)
        out.append(Tensor(dim, n, entries))
    return out


def test_criterion_03_imAS_characterization():
    """For the tableaux with columns [2,2], [2,2,2], [3,2] over dimensions
    3 and 4, the solution space of (column antisymmetry) + (the consecutive
    column identities) has exactly the dimension of the span of the
    antisymmetrizer images, computed exactly both ways."""
    for cols in ([2, 2], [2, 2, 2], [3, 2]):
        for dim in (3, 4):
            tab = YoungTableau.from_columns(cols)
            reduced = _pair_antisym_basis(tab, dim)
            echelon = SparseEchelon()
            n_constraints = 0
            for k in range(len(cols) - 1):
                outputs = {}
                for j, t in enumerate(reduced):
                    w = bianchi_sum_AS(tab, t, k, k + 1)
                    for entry, val in w.entries.items():
                        outputs.setdefault(entry, {})[j] = val
                for entry, row in outputs.items():
                    if echelon.insert(row):
                        n_constraints += 1
            solution_dim = len(reduced) - echelon.rank
            basis = young.imAS_basis(tab, dim)
            assert solution_dim == len(basis), (cols, dim)
            for t in basis[:3]:
                assert young.check_imAS(tab, t)
    # the 2x2 example: pair-exchange + pair-antisymmetric forms with vanishing
    # (x,y,x,y)-diagonal are exactly the fully antisymmetric 4-forms
    for dim in (3, 4, 5):
        tab22 = YoungTableau.from_columns([2, 2])
        pairs = list(itertools.combinations(range(dim), 2))
        coords = [(P, Q) for i, P in enumerate(pairs) for Q in pairs[i:]]
        echelon = SparseEchelon()
        outputs = {}

        def tensor_of(P, Q):
            (a, b), (c, d) = P, Q
            base = {}
            for (u, v, su) in ((a, b, 1), (b, a, -1)):
                for (w, x, sw) in ((c, d, 1), (d, c, -1)):
                    base[(u, v, w, x)] = base.get((u, v, w, x), 0) + su * sw
            if P != Q:
                for (u, v, su) in ((c, d, 1), (d, c, -1)):
                    for (w, x, sw) in ((a, b, 1), (b, a, -1)):
                        base[(u, v, w, x)] = base.get((u, v, w, x), 0) + su * sw
            return Tensor(dim, 4, {k: Fraction(v) for k, v in base.items() if v})

        diag_rows = {}
        for j, (P, Q) in enumerate(coords):
            t = tensor_of(P, Q)
            # diagonal polynomial coefficients as linear functionals
            poly = {}
            for (u, v, w, x), val in t.entries.items():
                mono = tuple(sorted([(0, u), (1, v), (0, w), (1, x)]))
                poly[mono] = poly.get(mono, Fraction(0)) + val
            for mono, val in poly.items():
                if val:
                    diag_rows.setdefault(mono, {})[j] = val
        ech = SparseEchelon()
        for row in diag_rows.values():
            ech.insert(row)
        solution_dim = len(coords) - ech.rank
        assert solution_dim == math.comb(dim, 4), dim
    report(3, "Im AS characterization", "(three tableaux x dims 3-4 + the 2x2 diagonal example)")


# ---------------------------------------------------------------------------
# 4. exchange identities

def test_criterion_04_exchange_identities():
    """100 random rational elements of each impulsion-polynomial space with
    b in {1,2,3} over ambient dimensions 3 and 4 satisfy
    R(q,v) = (-1)^b R(v,q) and R(q,v) = R(v,-q), exactly (as polynomial
    identities and at random rational points)."""
    rng = random.Random(77)
    total = 0
    for d in (3, 4):
        for b in (1, 2, 3):
            basis = pin.impulsion_poly_basis(d, b)
            for _ in range(100):
                R = Poly.zero(2 * d)
                for p in basis:
                    R = R + p.scale(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                assert pin.swap_blocks(R, d) == R.scale((-1) ** b)
                assert substitute_v_minus_q(R, d) == R
                q = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(d)]
                v = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(d)]
                val_qv, val_vq = pin.exchange_value(R, d, q, v)
                assert val_vq == (-1) ** b * val_qv
                total += 1
    report(4, "exchange identities", f"({total} random elements, exact)")


# ---------------------------------------------------------------------------
# 5. free motion projects to free motion

def test_criterion_05_free_motion_projection():
    """20 random states on the unit sphere integrate to great circles whose
    central projections are straight lines on the flat screen within 1e-6,
    and conversely straight lines project onto great circles within 1e-6."""
    rng = random.Random(11)
    sphere, flat = sc.sphere_screen(3), sc.flat_screen(3)
    worst_line = 0.0
    worst_circle = 0.0
    for trial in range(20):
        # sphere -> flat: start in the visible cap with unit speed
        while True:
            q0 = np.array([rng.gauss(0, 1) for _ in range(3)])
            q0 /= np.linalg.norm(q0)
            if q0[2] >= 0.6:
                break
        v0 = np.array([rng.gauss(0, 1) for _ in range(3)])
        v0 -= (v0 @ q0) * q0
        v0 /= np.linalg.norm(v0)
        traj = sc.integrate(sphere, sc.zero_force(3), q0, v0, (0.0, 0.5), tol=1e-12)
        rep = sc.verify_projection(traj, flat, sc.zero_force(3), tol=1e-6)
        assert rep.passed and rep.compared == rep.total, rep.to_json()
        # independent straight-line oracle
        P0, V0 = sc.central_project_state(sphere, flat, traj.qs[0], traj.vs[0])
        direction = V0 / np.linalg.norm(V0)
        for q, v in zip(traj.qs, traj.vs):
            P, _ = sc.central_project_state(sphere, flat, q, v)
            delta = P - P0
            dist = np.linalg.norm(delta - (delta @ direction) * direction)
            worst_line = max(worst_line, dist)
        # flat -> sphere: straight line onto a great circle
        x0 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 1.0])
        w0 = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0])
        ltraj = sc.integrate(flat, sc.zero_force(3), x0, w0, (0.0, 1.0), tol=1e-12)
        rep = sc.verify_projection(ltraj, sphere, sc.zero_force(3), tol=1e-6)
        assert rep.passed and rep.compared == rep.total, rep.to_json()
        Q0, W0 = sc.central_project_state(flat, sphere, ltraj.qs[0], ltraj.vs[0])
        normal = np.cross(Q0, W0)
        normal /= np.linalg.norm(normal)
        for q, v in zip(ltraj.qs, ltraj.vs):
            Q, _ = sc.central_project_state(flat, sphere, q, v)
            dev = math.hypot(float(normal @ Q), np.linalg.norm(Q) - 1.0)
            worst_circle = max(worst_circle, dev)
    assert worst_line <= 1e-6
    assert worst_circle <= 1e-6
    report(
        5,
        "free-motion projection",
        f"(max line deviation {worst_line:.2e}, max circle deviation {worst_circle:.2e})",
    )


# ---------------------------------------------------------------------------
# 6. the Kepler problem across screens

def _reparametrized_times(traj, to_screen):
    """Cumulative target-screen time s(t) with ds/dt = k(q)^-2, by Simpson
    quadrature on interpolated midpoints."""
    ts = traj.times
    d = traj.qs.shape[1]
    out = [0.0]
    for i in range(len(ts) - 1):
        h = ts[i + 1] - ts[i]
        q_mid = traj.interpolate(0.5 * (ts[i] + ts[i + 1]))[:d]
        f0 = to_screen.value(traj.qs[i]) ** -2
        fm = to_screen.value(q_mid) ** -2
        f1 = to_screen.value(traj.qs[i + 1]) ** -2
        out.append(out[-1] + h / 6.0 * (f0 + 4.0 * fm + f1))
    return np.array(out)


def test_criterion_06_kepler_across_screens():
    """The planar Kepler ellipse on the flat screen projects onto the
    constant-curvature Kepler trajectory on the sphere within 1e-6; the
    homogenized energy and the impulsion bivector agree across the screens
    to 1e-8 relative along the trajectory."""
    mu = 1.0
    center = np.array([0.0, 0.0, 1.0])
    flat, sphere = sc.flat_screen(3), sc.sphere_screen(3)
    force = sc.kepler_force(mu, center)
    q0 = [0.8, 0.0, 1.0]
    v0 = [0.0, 0.9, 0.0]
    r0 = 0.8
    energy0 = 0.5 * 0.81 - mu / r0
    a_axis = -mu / (2 * energy0)
    period = 2 * math.pi * math.sqrt(a_axis**3 / mu)
    traj = sc.integrate(flat, force, q0, v0, (0.0, period), tol=1e-12)
    rep = sc.verify_projection(traj, sphere, force, tol=1e-6)
    assert rep.passed and rep.compared == rep.total, rep.to_json()

    def energy(q, v):
        x = q / flat.value(q)
        w = flat.value(q) * v - v[2] * q
        return 0.5 * float(w[:2] @ w[:2]) - mu / np.linalg.norm(x[:2] - center[:2])

    e_source = energy(traj.qs[0], traj.vs[0])
    target = rep.target
    s_times = _reparametrized_times(traj, sphere)
    worst_energy = 0.0
    worst_impulsion = 0.0
    for i in range(len(traj)):
        q, v = traj.qs[i], traj.vs[i]
        assert abs(energy(q, v) - e_source) <= 1e-8 * abs(e_source)
        Q, V = sc.central_project_state(flat, sphere, q, v)
        worst_energy = max(worst_energy, abs(energy(Q, V) - e_source) / abs(e_source))
        if s_times[i] <= target.times[-1]:
            state = target.interpolate(s_times[i])
            Qt, Vt = state[:3], state[3:]
            bi_src = sc.bivector_coords(q, v)
            bi_tgt = sc.bivector_coords(Qt, Vt)
            scale = max(1.0, float(np.max(np.abs(bi_src))))
            worst_impulsion = max(worst_impulsion, float(np.max(np.abs(bi_src - bi_tgt))) / scale)
            we = abs(energy(Qt, Vt) - e_source) / abs(e_source)
            worst_energy = max(worst_energy, we)
    assert worst_energy <= 1e-8
    assert worst_impulsion <= 1e-8
    report(
        6,
        "Kepler across screens",
        f"(curve dev {rep.max_deviation:.2e}, energy {worst_energy:.2e}, impulsion {worst_impulsion:.2e})",
    )


# ---------------------------------------------------------------------------
# 7. classification round trips

def test_criterion_07_classification_round_trip():
    """50 random full-rank symmetric maps across dimensions 3-5 produce the
    metric case with B G proportional to the identity, exactly; 50 random
    rank-n maps produce the flat case with the hyperplane direction spanning
    ker G, exactly."""
    rng = random.Random(99)
    from projdyn.exactlin import det, rank as mat_rank

    def rand_sym(d):
        B = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        return [[B[i][j] + B[j][i] for j in range(d)] for i in range(d)]

    full_count = 0
    dims = [3, 4, 5]
    while full_count < 50:
        d = dims[full_count % 3]
        G = rand_sym(d)
        if det(G) == 0:
            continue
        form = cc.curvature_from_symmetric_map(G)
        rep = cc.classify_curvature_form(form)
        assert rep.case == "metric"
        B = rep.witnesses["B"]
        prod = [[sum(B[i][k] * G[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        c = prod[0][0]
        assert c != 0
        assert all(prod[i][j] == (c if i == j else 0) for i in range(d) for j in range(d))
        full_count += 1

    flat_count = 0
    while flat_count < 50:
        d = dims[flat_count % 3]
        # congruence image of a rank-(d-1) diagonal: symmetric, rank d-1
        P = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        if det(P) == 0:
            continue
        D = [[Fraction(int(i == j and i < d - 1)) for j in range(d)] for i in range(d)]
        PD = [[sum(P[i][k] * D[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        G = [[sum(PD[i][k] * P[j][k] for k in range(d)) for j in range(d)] for i in range(d)]
        if mat_rank(G) != d - 1:
            continue
        form = cc.curvature_from_symmetric_map(G)
        rep = cc.classify_curvature_form(form)
        assert rep.case == "flat"
        assert same_subspace([rep.witnesses["phi"]], kernel(G))
        flat_count += 1
    report(7, "classification round trip", "(50 metric + 50 flat cases, exact witnesses)")


# ---------------------------------------------------------------------------
# 8. decomposability preservation

def test_criterion_08_decomposability_preservation():
    """50 random wedge squares pass the preservation test and carry the
    second wedge-power map; 50 random generic maps in dimensions >= 4 fail;
    dimension-3 sources always pass."""
    rng = random.Random(123)
    dims = [4, 5, 6]
    for trial in range(50):
        d = dims[trial % 3]
        B = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        R = cc.BivectorMap.wedge_square(B)
        assert cc.preserves_decomposables(R)
        cc.wedge_power_map(R, 2)  # exists and is consistent
    for trial in range(50):
        d = 4 + trial % 2
        prs = cc.pair_basis(d)
        R = cc.BivectorMap(d, d, [[Fraction(rng.randint(-4, 4)) for _ in prs] for _ in prs])
        assert not cc.preserves_decomposables(R)
    for trial in range(50):
        prs = cc.pair_basis(3)
        R = cc.BivectorMap(3, 3, [[Fraction(rng.randint(-4, 4)) for _ in prs] for _ in prs])
        assert cc.preserves_decomposables(R)
    report(8, "decomposability preservation", "(50 + 50 + 50 maps, exact)")


# ---------------------------------------------------------------------------
# 9. the screen finder

def test_criterion_09_screen_finder():
    """The pipeline identifies: (a) the unit sphere behind the spherical
    kinetic energy, (b) the original flat screen behind the flat kinetic
    energy, (c) the indefinite hyperplane verdict behind the oscillator term;
    every verdict's compatibility identity is re-verified exactly and kernel
    vectors are orthogonal to the screen differential at sampled points."""
    euclid3 = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    sphere, flat = sc.sphere_screen(3), sc.flat_screen(3)

    kin_sphere = sum((vvar(i, 3) ** 2 for i in range(3)), Poly.zero(6)).scale(Fraction(1, 2))
    rep_a = cp.hamiltonian_test(ScreenIntegral(sphere, kin_sphere))
    assert rep_a.verdict == "quadric"
    assert rep_a.witnesses["g"] == euclid3
    assert rep_a.witnesses["lambda"] == Fraction(1, 2)

    kin_flat = (vvar(0, 3) ** 2 + vvar(1, 3) ** 2).scale(Fraction(1, 2))
    rep_b = cp.hamiltonian_test(ScreenIntegral(flat, kin_flat))
    assert rep_b.verdict == "hyperplane"
    assert rep_b.witnesses["phi"] == [0, 0, 1]
    assert rep_b.witnesses["g"] == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]

    rep_c = cp.hamiltonian_test(ScreenIntegral(flat, vvar(0, 3) * vvar(1, 3)))
    assert rep_c.verdict == "hyperplane"
    assert rep_c.witnesses["phi"] == [0, 0, 1]
    assert rep_c.witnesses["g"] == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]

    # independent re-verification of the compatibility identity, exactly
    from projdyn.curvclass import CurvatureForm, flat_form_tensor, metric_form_tensor

    form_a = CurvatureForm(metric_form_tensor(rep_a.witnesses["g"]).scale(rep_a.witnesses["lambda"]))
    assert cp.compatibility_check(form_a, rep_a.screen())
    for rep in (rep_b, rep_c):
        form = CurvatureForm(
            flat_form_tensor(rep.witnesses["phi"], rep.witnesses["g"], rep.witnesses["tangent_basis"])
        )
        assert cp.compatibility_check(form, rep.screen())
        assert compatibility_on_tangent_pairs(form, rep.witnesses["phi"])
        assert compatibility_repeated_argument(form, rep.witnesses["phi"])

    # kernel orthogonality on a cylindric case, sampled on the screen
    rep_cyl = cp.hamiltonian_test(ScreenIntegral(sc.flat_screen(4), vvar(0, 4) * vvar(1, 4)))
    assert rep_cyl.verdict == "cylindric"
    inner = rep_cyl.inner
    assert inner.verdict == "hyperplane"
    # the cylindric screen pulls back the inner hyperplane along the complement
    complement = rep_cyl.witnesses["complement"]
    phi_full = [Fraction(0)] * 4
    for pos, val in zip(complement, inner.witnesses["phi"]):
        phi_full[pos] = val
    cyl_screen = sc.LinearFormScreen(phi_full)
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = rng.standard_normal(4)
        q = q / cyl_screen.value(q) if cyl_screen.value(q) > 0 else -q / cyl_screen.value(-q)
        dh = cyl_screen.gradient(q)
        for k_vec in rep_cyl.kernel_basis:
            assert abs(dh @ np.array([float(x) for x in k_vec])) < 1e-12
    report(9, "screen finder", "(quadric, hyperplane, oscillator + cylindric kernel orthogonality)")


# ---------------------------------------------------------------------------
# 10. the oscillator pre-Lagrangians

def test_criterion_10_pre_lagrangian_energy():
    """For the oscillator pre-Lagrangians (velocity products minus position
    products, n <= 3) the energy has identically zero symbolic time
    derivative; its numerical drift along integrated motion stays below 1e-8
    relative over a time span of 100; the presymplectic test accepts the
    kinetic part and returns the recovered potential."""
    for n in (2, 3):
        Z = cp.SecondOrderSystem.oscillator(n)
        for i in range(n):
            for j in range(i, n):
                L = cp.yvar(i, n) * cp.yvar(j, n) - cp.xvar(i, n) * cp.xvar(j, n)
                E = cp.energy_integral(L, Z)
                assert Z.time_derivative(E).is_zero()
        T = sum((cp.yvar(i, n) ** 2 for i in range(n)), Poly.zero(2 * n)).scale(Fraction(1, 2))
        ok, U = cp.presymplectic_check(T, Z)
        assert ok
        assert U == sum((cp.xvar(i, n) ** 2 for i in range(n)), Poly.zero(2 * n)).scale(Fraction(-1, 2))

    # numerical drift along the integrated oscillator on the flat screen
    n = 2
    d = n + 1
    flat = sc.flat_screen(d)
    force = sc.oscillator_force(d)
    q0 = [0.7, -0.4, 1.0]
    v0 = [0.3, 0.8, 0.0]
    traj = sc.integrate(flat, force, q0, v0, (0.0, 100.0), tol=1e-12)
    Z = cp.SecondOrderSystem.oscillator(n)
    worst = 0.0
    for i in range(n):
        for j in range(i, n):
            L = cp.yvar(i, n) * cp.yvar(j, n) - cp.xvar(i, n) * cp.xvar(j, n)
            E = cp.energy_integral(L, Z)
            vals = [E.evaluate_float(list(q[:n]) + list(v[:n])) for q, v in zip(traj.qs, traj.vs)]
            ref = vals[0]
            drift = max(abs(v - ref) for v in vals) / max(abs(ref), 1e-3)
            worst = max(worst, drift)
    assert worst <= 1e-8
    report(10, "pre-Lagrangian energy", f"(symbolic zero derivative; numeric drift {worst:.2e})")


# ---------------------------------------------------------------------------
# 11. every quadratic first integral of q'' = f(q), from one kernel

def test_criterion_11_quadratic_integrals():
    """compat.quadratic_integrals finds every first integral of velocity
    degree at most 2: the kernel dimension counts them with the constant,
    and the leading-term rank counts their Killing-tensor parts.  Free motion
    gives all of P^{2,2}, checked against the hook-content dimension of the
    (2, 2) class and dim_Pbb; every kernel holds the constant integral."""

    def oscillator(*omegas):
        n = len(omegas)
        return cp.SecondOrderSystem(n, [cp.xvar(i, n).scale(-w * w) for i, w in enumerate(omegas)])

    rows = [
        ("free, n = 2", cp.SecondOrderSystem.free(2), 7, 6),
        ("free, n = 3", cp.SecondOrderSystem.free(3), 21, 20),
        ("isotropic, n = 2", cp.SecondOrderSystem.oscillator(2), 5, 4),
        ("isotropic, n = 3", cp.SecondOrderSystem.oscillator(3), 13, 12),
        ("1:2", oscillator(1, 2), 4, 3),
        ("1:3", oscillator(1, 3), 3, 2),
        ("1:2:3", oscillator(1, 2, 3), 6, 5),
    ]
    for name, system, dim, leading_rank in rows:
        integrals = cp.quadratic_integrals(system)
        echelon = SparseEchelon()
        for integral in integrals:
            echelon.insert(integral.T.terms)
        assert (len(integrals), echelon.rank) == (dim, leading_rank), name
        assert any(integral.T.is_zero() and integral.G == 1 for integral in integrals), name
        if name.startswith("free"):
            n = system.n
            assert leading_rank == young.class_dimension(YoungTableau([2, 2]), n + 1) == pin.dim_Pbb(n, 2)
    report(11, "quadratic integrals", "(seven systems; free motion gives P^{2,2})")
