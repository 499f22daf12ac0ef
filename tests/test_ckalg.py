import itertools
import time
from collections import Counter
from fractions import Fraction

import pytest

from ckcalc import ckalg
from ckcalc.bimodule import bimodule_member, generated_spectrum
from ckcalc.ckalg import (
    AlgElement,
    CKMono,
    af_compression_projections,
    check_mono,
    check_proj_afpart,
    diagonal_element,
    element,
    element_from_json_obj,
    element_to_json_obj,
    evaluate,
    gauge,
    identity,
    is_normalizing_pi,
    mono_element,
    mono_product,
    normalize,
    path_isometry,
    phi_m,
    range_projection,
    restricted_norm,
    separating_projections,
    support_spectrum,
    vertex_projection,
    zero,
)
from ckcalc.cocycle import LocallyConstantFn, cocycle_graded_projection
from ckcalc.errors import (
    BadInputError,
    InvalidGraphError,
    PreconditionError,
    SearchFailureError,
    UnsupportedNormError,
    UnsupportedRootError,
)
from ckcalc.graph import underlying, validate
from ckcalc.nest import commutator, nest_projection
from ckcalc.paths import FinPath, GroupoidPoint, _path, empty_path, ev, fpath, prepend
from ckcalc.scalars import ZERO, GaussianRational

from conftest import build_graph
from helpers import (
    all_monos,
    counting_check_mono,
    cylinders_disjoint,
    make_rng,
    rand_element,
    rand_point,
    random_graph,
    reference_overlapping_side,
    reference_product_pairs,
    refine_children,
)


def s(g, *edges):
    return path_isometry(g, fpath(*edges))


def test_mono_basics(o2):
    m = CKMono(fpath("a", "b"), fpath("b"))
    assert m.degree == 1
    assert m.adjoint() == CKMono(fpath("b"), fpath("a", "b"))
    assert not m.is_diagonal()
    assert CKMono(fpath("a"), fpath("a")).is_diagonal()
    check_mono(o2, m)


def test_check_mono_requires_common_source(e2):
    # c has source v, h has source u.
    with pytest.raises(BadInputError):
        check_mono(e2, CKMono(fpath("c"), fpath("h")))


def test_element_refuses_paths_with_two_sources(bridge):
    with pytest.raises(BadInputError, match="share a source"):
        AlgElement(bridge, [(CKMono(fpath("a"), fpath("h")), 1)])


def test_element_refuses_an_unknown_edge(bridge):
    with pytest.raises(InvalidGraphError, match="zz"):
        element(bridge, [(CKMono(fpath("a"), fpath("zz")), 1)])
    with pytest.raises(InvalidGraphError, match="unknown vertex id 'zz'"):
        vertex_projection(bridge, "zz")


def test_rebuilds_from_checked_terms_check_nothing(o2, monkeypatch):
    rng = make_rng(52)
    x = rand_element(o2, rng, n_terms=5, max_len=2)
    y = rand_element(o2, rng, n_terms=5, max_len=2)
    f = LocallyConstantFn.from_weights({"a": 1, "b": 0})

    def refuse(g, m):
        raise AssertionError("checked %r again" % (m,))

    monkeypatch.setattr(ckalg, "check_mono", refuse)
    x + y, x - y, x * y, normalize(x), normalize(x, beta_depth=3)
    nest_projection(o2, 2, 3), cocycle_graded_projection(f, x, 1)
    generated_spectrum([x, y]), support_spectrum(x), bimodule_member(x, [y])


def test_mono_product_cases(o2):
    g = underlying(o2)
    assert mono_product(g, CKMono(fpath("a"), fpath("b")), CKMono(fpath("b"), fpath("a"))) == CKMono(fpath("a"), fpath("a"))
    assert mono_product(g, CKMono(fpath("a"), fpath("b")), CKMono(fpath("b", "a"), fpath("a"))) == CKMono(fpath("a", "a"), fpath("a"))
    assert mono_product(g, CKMono(fpath("a"), fpath("b", "a")), CKMono(fpath("b"), fpath("b"))) == CKMono(fpath("a"), fpath("b", "a"))
    assert mono_product(g, CKMono(fpath("a"), fpath("a")), CKMono(fpath("b"), fpath("b"))) is None
    ep = empty_path("v")
    assert mono_product(g, CKMono(ep, ep), CKMono(fpath("a"), ep)) == CKMono(fpath("a"), ep)
    assert (mono_element(g, CKMono(fpath("a"), fpath("a")))
            * mono_element(g, CKMono(fpath("b"), fpath("b")))).is_zero()


def test_ck_relation(o2, c2, loop3e):
    for g in (o2, c2, loop3e):
        g0 = underlying(g)
        for e in g0.edges:
            left = s(g, e.id).adjoint() * s(g, e.id)
            right = zero(g)
            for f in g0.in_edges(e.source):
                right = right + range_projection(g, fpath(f.id))
            assert left == right


def test_refinement_identity(o2):
    m = mono_element(o2, CKMono(fpath("a"), fpath("b")))
    kids = refine_children(o2, CKMono(fpath("a"), fpath("b")))
    assert kids == [
        CKMono(fpath("a", "a"), fpath("b", "a")),
        CKMono(fpath("a", "b"), fpath("b", "b")),
    ]
    total = zero(o2)
    for child in kids:
        total = total + mono_element(o2, child)
    assert m == total


def test_semantic_equality_crosses_levels(o2):
    pv = vertex_projection(o2, "v")
    assert s(o2, "b").adjoint() * s(o2, "b") == pv
    assert pv == range_projection(o2, fpath("a")) + range_projection(o2, fpath("b"))
    assert identity(o2) == pv


def test_normalize_beta_depth(o2):
    a = mono_element(o2, CKMono(fpath("a"), fpath("b")))
    deep = normalize(a, beta_depth=2)
    assert deep == a
    assert all(len(m.beta) == 2 for m in deep.monomials())
    assert normalize(deep) == a
    with pytest.raises(BadInputError):
        normalize(a, beta_depth=-1)


def test_normalize_refuses_a_non_integer_depth(o2):
    # Unrefused, a float depth is never reached by the refinement walk.
    a = identity(o2)
    for d in (1.5, 2.0, Fraction(1, 2), "1"):
        with pytest.raises(BadInputError, match="integer"):
            normalize(a, beta_depth=d)
    assert len(normalize(a, beta_depth=2).terms) == 4


def test_zero_detection(o2):
    a = s(o2, "a") * s(o2, "a").adjoint()
    b = range_projection(o2, fpath("a"))
    assert (a - b).is_zero()
    assert not (a + b).is_zero()


def test_adjoint_is_an_involution_and_antihomomorphism(o2):
    rng = make_rng(11)
    for _ in range(25):
        a = rand_element(o2, rng, max_len=2)
        b = rand_element(o2, rng, max_len=2)
        assert a.adjoint().adjoint() == a
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_associativity_and_distributivity(o2, e2):
    rng = make_rng(12)
    for g in (o2, e2):
        for _ in range(15):
            a = rand_element(g, rng, max_len=2)
            b = rand_element(g, rng, max_len=2)
            c = rand_element(g, rng, max_len=2)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_scalar_arithmetic(o2):
    a = s(o2, "a")
    i = GaussianRational(0, 1)
    assert a.scale(i).scale(i) == a.scale(-1)
    assert (a + a) == a.scale(2)
    assert (a - a).is_zero()


def test_evaluate_examples(o2):
    x = ev((), ("b",))
    point = GroupoidPoint(prepend(fpath("a"), x), 1, x)
    assert evaluate(s(o2, "a"), point) == GaussianRational(1, 0)
    assert evaluate(s(o2, "b"), point) == GaussianRational(0, 0)
    unit = GroupoidPoint(x, 0, x)
    assert evaluate(vertex_projection(o2, "v"), unit) == GaussianRational(1, 0)
    assert evaluate(range_projection(o2, fpath("b")), unit) == GaussianRational(1, 0)
    assert evaluate(range_projection(o2, fpath("a")), unit) == GaussianRational(0, 0)


def test_evaluate_refuses_a_point_off_the_graph(o2):
    off_x = GroupoidPoint(ev(("z",), ("a",)), 1, ev((), ("a",)))
    off_y = GroupoidPoint(ev((), ("a",)), -1, ev(("z",), ("a",)))
    for point in (off_x, off_y):
        with pytest.raises(InvalidGraphError, match="z"):
            evaluate(s(o2, "a"), point)


def test_phi_partition(o2):
    rng = make_rng(13)
    for _ in range(20):
        a = rand_element(o2, rng, n_terms=6, max_len=3)
        total = zero(o2)
        for m in a.degrees():
            part = phi_m(a, m)
            assert part.degrees() in ([], [m])
            total = total + part
        assert total == a
    assert phi_m(s(o2, "a"), 0).is_zero()


def test_phi_m_refuses_a_non_integer_degree(o2):
    a = s(o2, "a")
    for m in (0.5, 1.0, Fraction(1, 2), "1", None):
        with pytest.raises(BadInputError, match="integer") as err:
            phi_m(a, m)
        assert err.value.code == "bad_input"
    assert phi_m(a, 1) == a


def test_gauge_rotation(o2):
    a = s(o2, "a")
    assert gauge(a, 4, 1) == a.scale(GaussianRational(0, 1))
    assert gauge(a, 2, 1) == a.scale(-1)
    assert gauge(a, 1, 5) == a
    assert gauge(a.adjoint(), 4, 1) == a.adjoint().scale(GaussianRational(0, -1))
    with pytest.raises(UnsupportedRootError):
        gauge(a, 3, 1)


def test_gauge_refuses_a_non_integer_power(o2):
    a = s(o2, "a")
    for j in (0.5, 1.5, 2.0, Fraction(1, 2), "1"):
        with pytest.raises(BadInputError, match="integer"):
            gauge(a, 4, j)
    assert gauge(a, 4, -3) == gauge(a, 4, 1)


def test_gauge_is_multiplicative(o2):
    rng = make_rng(14)
    for _ in range(15):
        a = rand_element(o2, rng, max_len=2)
        b = rand_element(o2, rng, max_len=2)
        assert gauge(a * b, 4, 1) == gauge(a, 4, 1) * gauge(b, 4, 1)
        assert gauge(gauge(a, 4, 1), 4, 3) == a


def test_gauge_fixes_degree_zero(o2):
    rng = make_rng(15)
    for _ in range(10):
        a = rand_element(o2, rng, max_len=2)
        assert gauge(phi_m(a, 0), 4, 1) == phi_m(a, 0)


def test_restricted_norm_examples(o2):
    ab = mono_element(o2, CKMono(fpath("a"), fpath("b")))
    ba = mono_element(o2, CKMono(fpath("b"), fpath("a")))
    assert restricted_norm(ab) == Fraction(1)
    assert restricted_norm(ab.scale(Fraction(1, 2)) + ba) == Fraction(1)
    with pytest.raises(UnsupportedNormError):
        restricted_norm(s(o2, "a") + s(o2, "b"))
    r_a = mono_element(o2, CKMono(fpath("a"), fpath("a")))
    with pytest.raises(UnsupportedNormError, match="norm is not rational"):  # |1 + i| = sqrt 2
        restricted_norm(r_a.scale(GaussianRational(1, 1)))
    assert restricted_norm(zero(o2)) == Fraction(0)


def test_is_normalizing(o2):
    assert is_normalizing_pi(s(o2, "a"))
    assert is_normalizing_pi(s(o2, "a").scale(GaussianRational(0, 1)))
    assert not is_normalizing_pi(s(o2, "a") + s(o2, "b"))
    assert not is_normalizing_pi(s(o2, "a").scale(Fraction(1, 2)))
    perm = mono_element(o2, CKMono(fpath("a"), fpath("b"))) + mono_element(
        o2, CKMono(fpath("b"), fpath("a"))
    )
    assert is_normalizing_pi(perm)


def test_cylinders_disjoint(o2):
    g = underlying(o2)
    assert cylinders_disjoint(g, fpath("a"), fpath("b"))
    assert not cylinders_disjoint(g, fpath("a"), fpath("a", "b"))
    assert not cylinders_disjoint(g, empty_path("v"), fpath("a"))


def sweep_pairs(g, left, right):
    """The (left key, right key) pairs the product's sweep meets, with the
    right alphas on side 0 and the left betas on side 1."""
    rng = g._range
    items = [(ckalg._leg(rng, s, a), 0, (s, a, b)) for s, a, b in right]
    items += [(ckalg._leg(rng, s, b), 1, (s, a, b)) for s, a, b in left]
    pairs = []
    for (_, side, key), stacks in ckalg._sweep(items):
        pairs += [(key, o[2]) if side else (o[2], key) for o in stacks[1 - side]]
    return pairs


def test_sweep_meets_the_pairs_of_the_prefix_index():
    rng = make_rng(5)
    met = 0
    for _ in range(250):
        g = random_graph(rng, max_vertices=3, sources=False)
        a = rand_element(g, rng, n_terms=rng.randint(1, 6))
        b = rand_element(g, rng, n_terms=rng.randint(1, 6))
        for left, right in ((a, b), (b, a), (a, a)):
            pairs = reference_product_pairs(g, left._keys, right._keys)
            assert Counter(sweep_pairs(g, left._keys, right._keys)) == Counter(pairs)
            met += len(pairs)
            # The product sums the monomial products of exactly those pairs.
            want = {}
            for k1, k2 in pairs:
                m = mono_product(g, ckalg._from_key(k1), ckalg._from_key(k2))
                key = ckalg._key(g, m)
                want[key] = want.get(key, ZERO) + (
                    left.terms[ckalg._from_key(k1)] * right.terms[ckalg._from_key(k2)])
            assert ckalg._product_keys(g, (left._keys, right._keys, 1)) == {
                key: c._triple for key, c in want.items() if not c.is_zero()}
    assert met > 800


def test_overlap_side_matches_the_all_pairs_scan():
    rng = make_rng(11)
    seen = Counter()
    for _ in range(700):
        g = random_graph(rng, max_vertices=3, sources=False)
        a = rand_element(g, rng, n_terms=rng.randint(1, 6))
        side = reference_overlapping_side(a)
        assert ckalg._overlapping_side(a) == side
        seen[side] += 1
        if side is not None:
            with pytest.raises(UnsupportedNormError, match="^%s projections overlap$" % side):
                restricted_norm(a)
    assert min(seen[None], seen["initial"], seen["final"]) > 100, seen


def test_restricted_norm_names_the_first_overlapping_pair(o2):
    def el(*legs):
        return element(o2, [(CKMono(_path(al, "v"), _path(be, "v")), 1) for al, be in legs])

    cases = [
        # S_a + S_b: both initial projections are p_v.
        (el((("a",), ()), (("b",), ())), "initial"),
        # S_a S_b* + R_a: the betas b and a miss, both alphas are a.
        (el((("a",), ("b",)), (("a",), ("a",))), "final"),
        # In listing order (a, a), (a, b), (bb, ba): the first pair overlaps
        # only in its alphas, though the betas b and ba of the second overlap.
        (el((("a",), ("a",)), (("a",), ("b",)), (("b", "b"), ("b", "a"))), "final"),
        (el((("a",), ("b",)), (("b", "b"), ("b", "a"))), "initial"),
    ]
    for a, side in cases:
        assert reference_overlapping_side(a) == side
        assert not is_normalizing_pi(a)
        with pytest.raises(UnsupportedNormError, match="^%s projections overlap$" % side):
            restricted_norm(a)


def test_prefix_sweep_scales(o2):
    """The square of 1 + R_{a^n} meets n + 1 pairs, and a 4,096-term
    orthogonal sum has no overlap; each took over 12 s with a prefix-key
    index and an all-pairs scan."""
    start = time.perf_counter()
    r = range_projection(o2, FinPath(("a",) * 1600))
    x = identity(o2) + r
    assert (x * x)._keys == (x + r.scale(2))._keys
    words = itertools.product("ab", repeat=12)
    d = diagonal_element(o2, [(FinPath(w), i + 1) for i, w in enumerate(words)])
    assert restricted_norm(d) == 4096
    assert time.perf_counter() - start < 8


def test_separating_projections_o2(o2):
    found = separating_projections(o2, CKMono(fpath("a"), fpath("a")), 1)
    assert found.pi == fpath("a", "a")
    assert found.w == fpath("b")
    assert found.level == 1
    assert found.p == found.q == CKMono(fpath("a", "a", "a", "b"), fpath("a", "a", "a", "b"))

    mixed = separating_projections(o2, CKMono(fpath("a"), fpath("b")), 1)
    assert mixed.q.alpha == fpath("a", "a", "a", "b")
    assert mixed.p.alpha == fpath("b", "a", "a", "b")
    # The defining relation q = e p e*.
    g = underlying(o2)
    e = CKMono(fpath("a"), fpath("b"))
    inner = mono_product(g, e, mixed.p)
    assert mono_product(g, inner, e.adjoint()) == mixed.q


def test_separating_projections_connector_condition(o2, e2):
    for g, e in ((o2, CKMono(fpath("a"), fpath("b"))), (e2, CKMono(empty_path("u"), empty_path("u")))):
        for k in (1, 2):
            found = separating_projections(g, e, k)
            assert len(found.pi) == 2 * found.level
            assert len(found.w) == found.level
            for d in range(1, found.level + 1):
                assert found.pi.edges[-d:] != found.w.edges[:d]


def test_separating_projections_deep_level(o2):
    found = separating_projections(o2, CKMono(fpath("a"), fpath("b")), 16)
    assert found.level == 16 and len(found.pi) == 32 and len(found.w) == 16
    for d in range(1, 17):
        assert found.pi.edges[-d:] != found.w.edges[:d]
    assert found.q.alpha.edges == ("a",) + found.pi.edges + found.w.edges


def test_separating_projections_preconditions(o2):
    with pytest.raises(PreconditionError):
        separating_projections(o2, CKMono(fpath("a", "a"), fpath("b")), 1)
    with pytest.raises(PreconditionError):
        separating_projections(o2, CKMono(fpath("a"), fpath("b")), 0)


def test_check_proj_afpart_examples(o2):
    a = s(o2, "a") + mono_element(o2, CKMono(fpath("a"), fpath("b")))
    assert check_proj_afpart(a, CKMono(fpath("a"), fpath("b")), 1)
    diag = range_projection(o2, fpath("a")) + range_projection(o2, fpath("b")).scale(3)
    assert check_proj_afpart(diag, CKMono(fpath("a"), fpath("a")), 1)
    with pytest.raises(PreconditionError):
        check_proj_afpart(s(o2, "a", "a"), CKMono(fpath("a"), fpath("b")), 1)


def test_af_compression_pair_nested(o2):
    g = underlying(o2)
    e = CKMono(fpath("a"), fpath("b"))
    first = separating_projections(g, e, 1)
    p_mono, q_mono = af_compression_projections(g, e, 1)
    # The chained projections refine the first pair.
    assert p_mono.alpha.word_starts_with(first.p.alpha)
    assert q_mono.alpha.word_starts_with(first.q.alpha)
    inner = mono_product(g, e, p_mono)
    assert mono_product(g, inner, e.adjoint()) == q_mono


def test_af_compression_bridge_is_the_first_p_times_e_adjoint():
    """The second search of af_compression_projections starts from
    S_{beta pi w} S_{alpha pi w}*, which is the product of the first p with
    e* wherever the first search succeeds."""
    rng = make_rng(3)
    checked = 0
    for _ in range(40):
        g = random_graph(rng, max_in=3, sources=False)
        for e in all_monos(g, 2):
            if len(e.alpha) != len(e.beta):
                continue
            try:
                first = separating_projections(g, e, 1)
            except SearchFailureError:
                continue
            bridge = mono_product(g, first.p, e.adjoint())
            assert bridge == CKMono(first.p.alpha, first.q.alpha), e
            checked += 1
    assert checked > 3000


def test_element_json_round_trip(o2):
    rng = make_rng(16)
    for _ in range(10):
        a = rand_element(o2, rng, n_terms=5, max_len=3)
        obj = element_to_json_obj(a)
        back = element_from_json_obj(o2, obj)
        assert back == a
        assert element_to_json_obj(back) == obj
    with pytest.raises(BadInputError):
        element_from_json_obj(o2, {"alpha": ["a"]})


def test_element_loader_checks_each_monomial_once(o2, monkeypatch):
    calls = counting_check_mono(monkeypatch)
    obj = [{"alpha": ["a"], "beta": [], "anchor": "v", "re": "1"},
           {"alpha": ["b"], "beta": ["b"], "re": "0", "im": "-1/2"}]
    a = element_from_json_obj(o2, obj)
    assert len(calls) == 2
    assert a == s(o2, "a") + range_projection(o2, fpath("b")).scale(GaussianRational(0, Fraction(-1, 2)))


def test_element_loader_keeps_its_error_order(o2):
    assert element_from_json_obj(o2, [{"alpha": ["a"], "beta": ["a"], "re": "0"}]).is_zero()
    # A bad monomial is reported before the graph's source.
    g = build_graph(["v", "w"], [("a", "v", "v"), ("c", "v", "w")])
    with pytest.raises(InvalidGraphError):
        element_from_json_obj(g, [{"alpha": ["z"], "beta": [], "anchor": "v", "re": "1"}])
    with pytest.raises(PreconditionError, match="the algebra"):
        element_from_json_obj(g, [{"alpha": ["a"], "beta": [], "anchor": "v", "re": "1"}])


def test_eval_respects_normal_form(o2):
    rng = make_rng(17)
    for _ in range(30):
        a = rand_element(o2, rng, n_terms=5, max_len=3)
        point = rand_point(o2, rng)
        direct = evaluate(a, point)
        renorm = evaluate(normalize(a, beta_depth=4), point)
        assert direct == renorm


def _all_pairs_product(x, y):
    """Reference product: mono_product folded over every pair of terms."""
    pairs = []
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            p = mono_product(x.graph, m1, m2)
            if p is not None:
                pairs.append((p, c1 * c2))
    return AlgElement(x.graph, pairs)


@pytest.mark.parametrize("name", ["o2", "e2", "loop3e", "c2", "random"])
def test_product_matches_all_pairs_reference(request, name):
    rng = make_rng(31)
    if name == "random":
        graphs = [random_graph(rng, sources=False) for _ in range(6)]
    else:
        graphs = [underlying(request.getfixturevalue(name))]
    for g in graphs:
        operands = [rand_element(g, rng, n_terms=6, max_len=3) for _ in range(6)]
        operands += [vertex_projection(g, v) for v in g.vertices]
        for e in g.edges:
            operands += [s(g, e.id), s(g, e.id).adjoint()]
        for _ in range(3):
            mixed = rng.sample(operands, 3)
            operands.append(mixed[0] + mixed[1].scale(2) + mixed[2])
        # An operand whose terms partly cancel: x y - (2/3) y x.
        operands.append(operands[0] * operands[1] - operands[1].scale(Fraction(2, 3)) * operands[0])
        for x in operands:
            for y in operands:
                got, want = x * y, _all_pairs_product(x, y)
                assert got.terms == want.terms
                assert element_to_json_obj(got) == element_to_json_obj(want)
                assert commutator(x, y).terms == (got - y * x).terms


def test_product_key_that_cancels_and_reappears(o2):
    # S_a comes from p_v (-1/2 S_a), then (1/2 S_a) p_v, which cancel, and
    # then from (2/3 S_a S_b*)(3/4 S_b).
    a, b = fpath("a"), fpath("b")
    p, sa, sb = vertex_projection(o2, "v"), s(o2, "a"), s(o2, "b")
    x = p + sa.scale(Fraction(1, 2)) + (sa * sb.adjoint()).scale(Fraction(2, 3))
    y = p - sa.scale(Fraction(1, 2)) + sb.scale(Fraction(3, 4))
    ep = empty_path("v")
    want = {CKMono(ep, ep): 1, CKMono(a, ep): Fraction(1, 2), CKMono(b, ep): Fraction(3, 4),
            CKMono(fpath("a", "a"), ep): Fraction(-1, 4),
            CKMono(fpath("a", "b"), ep): Fraction(3, 8), CKMono(a, b): Fraction(2, 3)}
    assert (x * y).terms == {m: GaussianRational(c) for m, c in want.items()}
    assert (x * y).terms == _all_pairs_product(x, y).terms


def test_arithmetic_refuses_an_operand_that_is_not_an_element(o2):
    a = path_isometry(o2, fpath("a"))
    calls = (
        lambda: a + 2,
        lambda: a - 2,
        lambda: commutator(a, 2),
        lambda: commutator(2, a),
        lambda: a + support_spectrum(a),
        lambda: bimodule_member(a, [2]),
        lambda: bimodule_member(2, [a]),
        lambda: generated_spectrum([2]),
        lambda: generated_spectrum([a, 2]),
    )
    for call in calls:
        with pytest.raises(BadInputError, match="expected two elements"):
            call()
    assert a * 2 == 2 * a == a.scale(2)


def test_term_and_cylinder_views_are_snapshots(o2):
    a = identity(o2) + path_isometry(o2, fpath("a"))
    terms = a.terms
    terms[CKMono(fpath("a"), empty_path("v"))] = GaussianRational(5)
    terms[CKMono(fpath("b"), fpath("b"))] = GaussianRational(1)
    assert a == identity(o2) + path_isometry(o2, fpath("a"))
    assert a.terms == {CKMono(empty_path("v"), empty_path("v")): GaussianRational(1),
                       CKMono(fpath("a"), empty_path("v")): GaussianRational(1)}
    assert a.terms is not a.terms
    s = support_spectrum(a)
    assert s.cylinders == frozenset(a.terms) and s.cylinders is not s.cylinders


def test_graph_with_a_source_is_rejected():
    # v has in-edges f (from v) and e (from the source w).  Refining below w
    # is impossible, so p_v + R_ff used to lose its R_e part and come out as
    # 2 R_ff + R_fe.
    g = build_graph(["v", "w"], [("f", "v", "v"), ("e", "v", "w")])
    assert g.sources == ("w",)
    assert validate(g).no_source_violations == ("w",)
    for call in (
        lambda: vertex_projection(g, "v"),
        lambda: range_projection(g, fpath("f", "f")),
        lambda: zero(g),
        lambda: element_from_json_obj(g, []),
    ):
        with pytest.raises(PreconditionError):
            call()
