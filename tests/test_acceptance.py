"""End-to-end acceptance checks, one test per numbered guarantee.

Each test is self-contained and exact: no floats, no tolerances.  Random
data is drawn from fixed seeds so failures reproduce byte for byte.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ckcalc.bimodule import bimodule_member
from ckcalc.ckalg import (
    AlgElement,
    CKMono,
    check_proj_afpart,
    evaluate,
    is_normalizing_pi,
    mono_element,
    normalize,
    path_isometry,
    path_tail_of,
    phi_m,
    range_projection,
    restricted_norm,
    separating_projections,
    vertex_projection,
    zero,
)
from ckcalc.cocycle import (
    LocallyConstantFn,
    TailedPair,
    acyclic_weights,
    eval_cocycle,
    eval_cocycle_tailed,
    integer_obstruction_witness,
    loop_growth,
    reconstruct_f,
)
from ckcalc.graph import every_loop_has_entrance, underlying
from ckcalc.nest import (
    commutator,
    in_alg_n,
    in_alg_n_oracle,
    nest_projection,
    point_in_spectrum_alg_n,
)
from ckcalc.paths import (
    FinPath,
    GroupoidPoint,
    compose,
    empty_path,
    enumerate_evpaths,
    ev,
    ev_range,
    fpath,
    inverse,
    path_source,
    point_in_Z,
    prepend,
    shift_n,
)
from ckcalc.scalars import GaussianRational

from helpers import (
    all_monos,
    lpa_equal,
    make_rng,
    paths_up_to,
    rand_coeff,
    rand_diagonal,
    rand_element,
    rand_fn,
    rand_point,
    reference_paths_with_source,
    small_ordered_graphs,
)

ZERO_C = GaussianRational(0, 0)


def test_criterion_01_ck_relation(o2, c2, loop3e):
    """S_e* S_e equals the sum of range projections over the source's
    in-edges, for every edge of all three reference graphs."""
    for g in (o2, c2, loop3e):
        g0 = underlying(g)
        for e in g0.edges:
            s_e = path_isometry(g0, fpath(e.id))
            back = zero(g0)
            for f in g0.in_edges(e.source):
                back = back + range_projection(g0, fpath(f.id))
            assert (s_e.adjoint() * s_e - back).is_zero(), e.id


def test_criterion_02_rewrite_soundness(o2, c2, loop3e):
    """Normalization never changes the groupoid function: the raw term sum
    and the normal form evaluate identically at random points."""
    rng = make_rng(101)
    for g in (o2, c2, loop3e):
        g0 = underlying(g)
        monos = all_monos(g0, 4)
        hits = 0
        for _ in range(100):
            pairs = [
                (rng.choice(monos), rand_coeff(rng))
                for _ in range(rng.randint(1, 30))
            ]
            point = rand_point(g0, rng)
            raw = ZERO_C
            for m, c in pairs:
                if point_in_Z(g0, point, m.alpha, m.beta):
                    raw = raw + c
            if raw != ZERO_C:
                hits += 1
            elem = AlgElement(g0, pairs)
            assert evaluate(elem, point) == raw
            assert evaluate(normalize(elem, beta_depth=5), point) == raw
        assert hits > 0


def test_criterion_03_masa_criterion(single_loop, c2, loop3, o2, loop3e, e2):
    """The diagonal is maximal abelian exactly when every loop has an
    entrance: false for bare loops of length 1, 2, 3; true with entrances."""
    assert every_loop_has_entrance(single_loop) is False
    assert every_loop_has_entrance(c2) is False
    assert every_loop_has_entrance(loop3) is False
    assert every_loop_has_entrance(o2) is True
    assert every_loop_has_entrance(loop3e) is True
    assert every_loop_has_entrance(e2) is True


def test_criterion_04_nest_predicate_matches_oracle(o2, e2):
    """The five-clause membership test agrees with the cut-by-cut symbolic
    oracle on every monomial with both path lengths at most 3."""
    for og in (o2, e2):
        # No simple loop is longer than the vertex count, which is the
        # longest loop's length on O2 (1) and e2 (2).
        maxloop = len(og.vertices)
        disagreements = []
        for m in all_monos(og, 3):
            bound = len(m.alpha) + len(m.beta) + 2 * maxloop
            fast, _ = in_alg_n(og, m)
            slow, _ = in_alg_n_oracle(og, m, level_bound=bound)
            if fast != slow:
                disagreements.append((m, fast, slow))
        assert disagreements == []


def _truncation_pair(g, point, j, n):
    x_cut = (
        empty_path(ev_range(g, point.x)) if j == 0 else FinPath(point.x.truncation(j))
    )
    y_cut = (
        empty_path(ev_range(g, point.y)) if n == 0 else FinPath(point.y.truncation(n))
    )
    return x_cut, y_cut


def _covered_by_alg_n_mono(og, point, depth=6):
    g0 = underlying(og)
    for n in range(0, depth + 1):
        j = n + point.k
        if j < 0 or j > depth:
            continue
        alpha, beta = _truncation_pair(g0, point, j, n)
        if not point_in_Z(g0, point, alpha, beta):
            continue
        if in_alg_n(og, CKMono(alpha, beta))[0]:
            return True
    return False


def test_criterion_05_spectrum_consistency(o2, e2):
    """A point lies in the nest-algebra spectrum exactly when some covering
    monomial passes the membership test, searching truncation pairs to
    depth 6."""
    rng = make_rng(105)
    a_inf = ev((), ("a",))
    b_inf = ev((), ("b",))
    pinned_o2 = [
        GroupoidPoint(a_inf, 1, a_inf),
        GroupoidPoint(a_inf, 2, a_inf),
        GroupoidPoint(a_inf, -1, a_inf),
        GroupoidPoint(b_inf, -1, b_inf),
        GroupoidPoint(b_inf, 1, b_inf),
        GroupoidPoint(prepend(fpath("a"), b_inf), 1, b_inf),
        GroupoidPoint(prepend(fpath("b"), a_inf), 1, a_inf),
    ]
    pinned_e2 = [
        GroupoidPoint(ev((), ("c", "d")), 2, ev((), ("c", "d"))),
        GroupoidPoint(ev((), ("h",)), 1, ev((), ("h",))),
        GroupoidPoint(ev((), ("h",)), -1, ev((), ("h",))),
    ]
    for og, pinned in ((o2, pinned_o2), (e2, pinned_e2)):
        points = list(pinned)
        while len(points) < 50:
            points.append(rand_point(og, rng))
        for point in points:
            claimed, _ = point_in_spectrum_alg_n(og, point)
            assert claimed == _covered_by_alg_n_mono(og, point), point


def _supported_in_radical(og, a):
    """Every monomial of the normal form must pass the membership test and
    have prefix-incomparable legs, so its basic set misses all isotropy."""
    g0 = underlying(og)
    for m in a.monomials():
        if not in_alg_n(og, m)[0]:
            return False
        if path_tail_of(g0, m.alpha, m.beta) is not None:
            return False
        if path_tail_of(g0, m.beta, m.alpha) is not None:
            return False
    return True


def test_criterion_06_radical(o2):
    """Commutators of member monomials land in the radical, and radical
    monomials square to zero."""
    members = [m for m in all_monos(o2, 3) if in_alg_n(o2, m)[0]]
    assert members
    elems = [mono_element(o2, m) for m in members]
    nonzero_commutators = 0
    for left in elems:
        for right in elems:
            com = commutator(left, right)
            if not com.is_zero():
                nonzero_commutators += 1
            assert _supported_in_radical(o2, com)
    assert nonzero_commutators > 0

    radical_monos = [
        m
        for m in all_monos(o2, 3)
        if _supported_in_radical(o2, mono_element(o2, m))
    ]
    assert radical_monos
    for m in radical_monos:
        e = mono_element(o2, m)
        assert (e * e).is_zero(), m


def _composable_pair(g, rng):
    g0 = underlying(g)
    tails = enumerate_evpaths(g0, 2, 2)
    z = rng.choice(tails)
    v = ev_range(g0, z)
    picks = []
    for _ in range(3):
        opts = reference_paths_with_source(g0, v, rng.randint(0, 3))
        if not opts:
            return None
        picks.append(rng.choice(opts))
    x, y, w = (prepend(p, z) for p in picks)
    first = GroupoidPoint(x, len(picks[0]) - len(picks[1]), y)
    second = GroupoidPoint(y, len(picks[1]) - len(picks[2]), w)
    return first, second


def test_criterion_07_cocycle_laws(o2, e2, loop3e):
    """Additivity over composition, antisymmetry under inversion, recovery
    of the function from its cocycle, and degree counting for f constant 1."""
    rng = make_rng(107)
    one = LocallyConstantFn.constant(1)
    for g in (o2, e2):
        fns = [one] + [rand_fn(g, rng, d) for d in (0, 1, 2)]
        done = 0
        while done < 100:
            pair = _composable_pair(g, rng)
            if pair is None:
                continue
            first, second = pair
            whole = compose(first, second)
            f = fns[done % len(fns)]
            assert eval_cocycle(f, first) + eval_cocycle(f, second) == eval_cocycle(
                f, whole
            )
            assert eval_cocycle(f, first) == -eval_cocycle(f, inverse(first))
            assert eval_cocycle(one, whole) == whole.k
            done += 1
    for g in (o2, e2, loop3e):
        for depth in (0, 1, 2):
            ok, failures = reconstruct_f(g, rand_fn(g, rng, depth))
            assert ok and failures == []


def test_criterion_08_loop_growth(o2):
    """The cocycle grows linearly along powers of a periodic point, checked
    for 50 multiples on three distinct points."""
    rng = make_rng(108)
    one = LocallyConstantFn.constant(1)
    ind_a = LocallyConstantFn.from_weights({"a": 1, "b": 0})
    random_f = rand_fn(o2, rng, 2)
    points = [
        (ev((), ("a",)), 1),
        (ev((), ("b",)), 1),
        (ev((), ("a", "b")), 2),
    ]
    for x, period in points:
        for f in (one, ind_a, random_f):
            report = loop_growth(f, x, period)
            assert report.verified, (x, f)
            for k in range(1, 51):
                value = eval_cocycle(f, GroupoidPoint(x, k * period, x))
                assert value == k * report.base, (x, f, k)
    assert loop_growth(one, ev((), ("a",)), 1).base == 1
    assert loop_growth(one, ev((), ("b",)), 1).base == 1
    assert loop_growth(one, ev((), ("a", "b")), 2).base == 2


def test_criterion_09_acyclic_weights():
    """Geometric weights dominate their smaller tail for sizes 1..10, and
    the induced cocycle never vanishes on multiset-distinct prefixes."""
    for size in range(1, 11):
        ids = ["e%d" % i for i in range(size)]
        weights = acyclic_weights(ids)
        ordered = sorted(weights.values(), reverse=True)
        for i, w in enumerate(ordered):
            assert w > sum(ordered[i + 1:], Fraction(0))

    rng = make_rng(109)
    pool = ["e%d" % i for i in range(10)]
    weights = acyclic_weights(pool)
    f = LocallyConstantFn.from_weights(weights)
    window = FinPath((pool[0],))
    nondegenerate = 0
    while nondegenerate < 100:
        nx, ny = rng.randint(0, 5), rng.randint(0, 5)
        px = FinPath(tuple(rng.sample(pool, nx)), anchor=None if nx else "z")
        py = FinPath(tuple(rng.sample(pool, ny)), anchor=None if ny else "z")
        if Counter(px.edges) == Counter(py.edges):
            continue
        assert eval_cocycle_tailed(f, TailedPair(px, py, window)) != 0
        nondegenerate += 1


def test_criterion_10_integer_obstruction(o2):
    """On the crafted witness pair, the window-wide telescoping sum dies
    for every function of the matching depth."""
    rng = make_rng(110)
    for ell in (2, 3):
        witness = integer_obstruction_witness(o2, fpath("a"), fpath("b"), ell)
        assert witness.window == ell
        for _ in range(20):
            f = rand_fn(o2, rng, witness.window)
            assert eval_cocycle(f, GroupoidPoint(witness.x, 0, witness.y)) == 0


def _rand_normalizing(g, rng, max_len=2):
    g0 = underlying(g)
    while True:
        ka, kb = rng.randint(0, max_len), rng.randint(0, max_len)
        betas = [p for p in paths_up_to(g0, max_len) if len(p) == kb]
        if not betas:
            continue
        chosen = rng.sample(betas, rng.randint(1, min(3, len(betas))))
        used = set()
        pairs = []
        for b in chosen:
            opts = [
                a
                for a in reference_paths_with_source(g0, path_source(g0, b), ka)
                if a not in used
            ]
            if not opts:
                pairs = None
                break
            a = rng.choice(opts)
            used.add(a)
            phase = rng.choice(
                [
                    GaussianRational(1, 0),
                    GaussianRational(-1, 0),
                    GaussianRational(0, 1),
                    GaussianRational(0, -1),
                ]
            )
            pairs.append((CKMono(a, b), phase))
        if pairs:
            return AlgElement(g0, pairs)


def _rand_diag_projection(g, rng, max_len=2):
    g0 = underlying(g)
    length = rng.randint(0, max_len)
    atoms = [p for p in paths_up_to(g0, max_len) if len(p) == length]
    chosen = rng.sample(atoms, rng.randint(1, len(atoms)))
    return AlgElement(g0, [(CKMono(p, p), 1) for p in chosen])


def test_criterion_11_normalizers(o2, e2):
    """The normalizing predicate is closed under adjoints and products, and
    diagonal compressions of normalizers have restricted norm 0 or 1."""
    rng = make_rng(111)
    for g in (o2, e2):
        pool = [_rand_normalizing(g, rng) for _ in range(25)]
        for v in pool:
            assert is_normalizing_pi(v)
            assert is_normalizing_pi(v.adjoint())
        for v, w in zip(pool, pool[1:]):
            assert is_normalizing_pi(v * w)
            assert is_normalizing_pi(v.adjoint() * w)
        compressions = 0
        nonzero_norms = 0
        while compressions < 50:
            v = rng.choice(pool)
            p = _rand_diag_projection(g, rng)
            q = _rand_diag_projection(g, rng)
            norm = restricted_norm(q * v * p)
            assert norm in (Fraction(0), Fraction(1))
            if norm == 1:
                nonzero_norms += 1
            compressions += 1
        assert nonzero_norms > 0


def test_criterion_12_separating_projections(o2, e2):
    """The projection pair kills every degree-moving bounded monomial, the
    returned connector words avoid the overlap pattern, and random bounded
    elements compress to their degree-zero part."""
    rng = make_rng(112)
    references = [
        (o2, [CKMono(fpath("a"), fpath("b")), CKMono(fpath("a"), fpath("a"))]),
        (e2, [CKMono(fpath("h"), fpath("d")), CKMono(fpath("c"), fpath("c"))]),
    ]
    for g, monos in references:
        g0 = underlying(g)
        for e in monos:
            for k in (1, 2):
                found = separating_projections(g0, e, k)
                assert len(found.pi) == 2 * found.level
                assert len(found.w) == found.level
                for d in range(1, found.level + 1):
                    assert found.pi.edges[-d:] != found.w.edges[:d]

                p = mono_element(g0, found.p)
                q = mono_element(g0, found.q)
                moving = [
                    m
                    for m in all_monos(g0, k)
                    if m.degree != 0
                ]
                assert moving
                for m in moving:
                    assert (q * mono_element(g0, m) * p).is_zero(), (e, k, m)

                bounded = all_monos(g0, k)
                for _ in range(10):
                    pairs = [
                        (rng.choice(bounded), rand_coeff(rng))
                        for _ in range(rng.randint(1, 4))
                    ]
                    a = AlgElement(g0, pairs)
                    assert check_proj_afpart(a, e, k)


def test_criterion_13_spectral_closure(o2, e2, single_loop):
    """Bimodule elements assembled with diagonal coefficients stay members
    with all their graded parts, while the one-generator loop-graph demo
    shows the locked evaluations that a plain projection violates."""
    rng = make_rng(113)
    for g in (o2, e2):
        for _ in range(10):
            gens = [rand_element(g, rng, 3, 2) for _ in range(rng.randint(1, 3))]
            h = zero(g)
            for gen in gens:
                d_left = rand_diagonal(g, rng)
                d_right = rand_diagonal(g, rng)
                h = h + d_left * gen * d_right
            assert bimodule_member(h, gens)
            for m in h.degrees():
                assert bimodule_member(phi_m(h, m), gens)

    g = underlying(single_loop)
    generator = vertex_projection(g, "v") + path_isometry(g, fpath("a"))
    x = ev((), ("a",))
    unit = GroupoidPoint(x, 0, x)
    hop = GroupoidPoint(x, 1, x)
    assert evaluate(generator, unit) == evaluate(generator, hop)
    locked_nonzero = 0
    for _ in range(20):
        h = zero(g)
        for _ in range(rng.randint(1, 3)):
            h = h + rand_diagonal(g, rng) * generator * rand_diagonal(g, rng)
        assert evaluate(h, unit) == evaluate(h, hop)
        if evaluate(h, unit) != ZERO_C:
            locked_nonzero += 1
    assert locked_nonzero > 0

    projection = vertex_projection(g, "v")
    assert evaluate(projection, unit) != evaluate(projection, hop)
    assert bimodule_member(projection, [generator])


# Criteria 01, 02, 04, 05 and 07 again, on random graphs with at most four
# vertices, no sources and an adapted order.  Each graph is an OrderedGraph
# and is passed as such to every layer.  Path lengths stay at most 2, since
# refinement and the oracle's level scan grow exponentially with them.
small_graph_settings = settings(
    max_examples=12, deadline=None, derandomize=True, database=None
)
graph_and_rng = (small_ordered_graphs(), st.integers(0, 2**32).map(make_rng))


def _small_point(og, rng):
    return rand_point(og, rng, max_side=2, max_cycle=len(og.vertices))


@small_graph_settings
@given(*graph_and_rng)
def test_random_graphs_ck_relation_and_rewrite_soundness(og, rng):
    for e in og.edges:
        s_e = path_isometry(og, fpath(e.id))
        back = zero(og)
        for f in og.in_edges(e.source):
            back = back + range_projection(og, fpath(f.id))
        assert (s_e.adjoint() * s_e - back).is_zero(), e.id
    monos = all_monos(og, 2)
    for _ in range(10):
        pairs = [(rng.choice(monos), rand_coeff(rng)) for _ in range(rng.randint(1, 10))]
        point = _small_point(og, rng)
        raw = sum(
            (c for m, c in pairs if point_in_Z(og, point, m.alpha, m.beta)), ZERO_C
        )
        elem = AlgElement(og, pairs)
        assert evaluate(elem, point) == raw
        assert evaluate(normalize(elem, beta_depth=3), point) == raw


@small_graph_settings
@given(*graph_and_rng)
def test_random_graphs_nest_predicate_and_spectrum(og, rng):
    for m in all_monos(og, 2):
        assert in_alg_n(og, m)[0] == in_alg_n_oracle(og, m)[0], m
    for _ in range(10):
        point = _small_point(og, rng)
        claimed, _ = point_in_spectrum_alg_n(og, point)
        assert claimed == _covered_by_alg_n_mono(og, point), point


@small_graph_settings
@given(*graph_and_rng)
def test_random_graphs_cocycle_laws(og, rng):
    one = LocallyConstantFn.constant(1)
    fns = [one] + [rand_fn(og, rng, d) for d in (0, 1, 2)]
    for f in fns:
        first = _small_point(og, rng)
        n = rng.randint(0, 2)
        tail = shift_n(first.y, n)
        v = ev_range(og, tail)
        head = rng.choice([p for j in range(3) for p in reference_paths_with_source(og, v, j)])
        second = GroupoidPoint(first.y, n - len(head), prepend(head, tail))
        whole = compose(first, second)
        assert eval_cocycle(f, first) + eval_cocycle(f, second) == eval_cocycle(f, whole)
        assert eval_cocycle(f, first) == -eval_cocycle(f, inverse(first))
        assert eval_cocycle(one, whole) == whole.k
    for f in fns:
        ok, failures = reconstruct_f(og, f)
        assert ok and failures == []


@small_graph_settings
@given(*graph_and_rng)
def test_random_graphs_mix_ordered_and_plain_elements(og, rng):
    """Elements built over the OrderedGraph and over its plain graph, and
    nest projections, all live over one graph and combine."""
    over_og = rand_element(og, rng, 3, 2)
    over_plain = rand_element(og.graph, rng, 3, 2)
    projection = nest_projection(og, 1, rng.randint(0, len(og.edges)))
    for a, b in ((over_og, over_plain), (projection, over_og), (projection, over_plain)):
        assert (a + b) - b == a
        assert lpa_equal((a + b) - b, a)
        assert a * b - b * a == commutator(a, b)
        assert lpa_equal(a * b - b * a, commutator(a, b))
