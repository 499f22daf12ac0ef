import pytest

from ckcalc.bimodule import (
    SpectrumSet,
    bimodule_member,
    ck_in_analytic,
    generated_spectrum,
    member,
    spectrum_from_json_obj,
    spectrum_to_json_obj,
)
from ckcalc.ckalg import (
    CKMono,
    join_paths,
    mono_element,
    mono_source,
    path_isometry,
    vertex_projection,
)
from ckcalc.cocycle import LocallyConstantFn
from ckcalc.errors import BadInputError, InvalidGraphError, PreconditionError
from ckcalc.graph import underlying
from ckcalc.paths import (
    GroupoidPoint,
    continuations,
    empty_path,
    fpath,
    path_range,
    path_source,
    point_in_Z,
    prepend,
)

from conftest import build_graph
from helpers import (
    all_monos,
    counting_check_mono,
    cyl_contains,
    make_rng,
    rand_element,
    random_tail,
    refine_children,
)


def cyl(*parts):
    alpha, beta = parts
    return CKMono(alpha, beta)


def test_cyl_contains_examples(o2):
    outer = cyl(fpath("a"), fpath("b"))
    inner = cyl(fpath("a", "a"), fpath("b", "a"))
    assert cyl_contains(o2, inner, outer)
    assert not cyl_contains(o2, outer, inner)
    assert cyl_contains(o2, cyl(fpath("a", "b"), fpath("b", "b")), outer)
    # Tails must agree on both legs.
    assert not cyl_contains(o2, cyl(fpath("a", "a"), fpath("b", "b")), outer)
    # Degree mismatch can never nest.
    assert not cyl_contains(o2, cyl(fpath("a", "a"), fpath("b")), outer)
    assert cyl_contains(o2, outer, outer)


def test_from_cylinders_coarsens_full_families(o2):
    kids = refine_children(o2, cyl(fpath("a"), fpath("b")))
    s = SpectrumSet.from_cylinders(o2, kids)
    assert s.cylinders == frozenset({cyl(fpath("a"), fpath("b"))})
    # A proper subfamily stays as it is.
    s2 = SpectrumSet.from_cylinders(o2, kids[:1])
    assert s2.cylinders == frozenset(kids[:1])


def test_from_cylinders_drops_nested_members(o2):
    s = SpectrumSet.from_cylinders(
        o2,
        [cyl(fpath("a"), fpath("b")), cyl(fpath("a", "a"), fpath("b", "a"))],
    )
    assert s.cylinders == frozenset({cyl(fpath("a"), fpath("b"))})


def test_from_cylinders_is_canonical(o2):
    rng = make_rng(21)
    pool = all_monos(o2, 2)
    for _ in range(20):
        picked = rng.sample(pool, 5)
        s1 = SpectrumSet.from_cylinders(o2, picked)
        shuffled = picked[:]
        rng.shuffle(shuffled)
        s2 = SpectrumSet.from_cylinders(o2, shuffled)
        assert s1 == s2
        s3 = SpectrumSet.from_cylinders(o2, s1.cylinders)
        assert s3 == s1


def test_constructor_is_canonical(o2):
    r_a, r_b = cyl(fpath("a"), fpath("a")), cyl(fpath("b"), fpath("b"))
    built = SpectrumSet(o2, [r_a, r_b])
    p_v = SpectrumSet.from_cylinders(o2, [cyl(empty_path("v"), empty_path("v"))])
    assert built == p_v
    assert hash(built) == hash(p_v)
    assert len(built) == len(p_v) == 1
    assert member(o2, cyl(fpath("a", "b"), fpath("a", "b")), built)
    assert not member(o2, cyl(fpath("a"), fpath("b")), built)


def test_member_examples(o2):
    family = SpectrumSet.from_cylinders(o2, [cyl(fpath("a"), fpath("b"))])
    assert member(o2, cyl(fpath("a", "a"), fpath("b", "a")), family)
    small = SpectrumSet.from_cylinders(o2, [cyl(fpath("a", "a"), fpath("b", "a"))])
    assert not member(o2, cyl(fpath("a"), fpath("b")), small)
    assert not member(o2, cyl(fpath("a"), fpath("a")), family)


def test_member_of_reassembled_family(o2):
    kids = refine_children(o2, cyl(fpath("a"), fpath("b")))
    family = SpectrumSet.from_cylinders(o2, kids)
    assert member(o2, cyl(fpath("a"), fpath("b")), family)


def _member_point_oracle(g, m, spectrum, rng):
    """Independent check: refine m to the family depth along continuation
    windows and test one concrete orbit point per refined piece, on a random
    tail drawn from rng."""
    g0 = underlying(g)
    peers = [c for c in spectrum.cylinders if c.degree == m.degree]
    if not peers:
        return False
    depth = max(len(m.beta), max(len(c.beta) for c in peers))
    src = mono_source(g0, m)
    for w in continuations(g0, src, depth - len(m.beta)):
        alpha = join_paths(m.alpha, w)
        beta = join_paths(m.beta, w)
        z = random_tail(g0, path_source(g0, w), rng)
        point = GroupoidPoint(prepend(alpha, z), m.degree, prepend(beta, z))
        if not any(point_in_Z(g0, point, c.alpha, c.beta) for c in peers):
            return False
    return True


def test_member_matches_point_oracle(o2):
    rng, tails = make_rng(22), make_rng(23)
    pool = all_monos(o2, 2)
    for _ in range(30):
        family = SpectrumSet.from_cylinders(o2, rng.sample(pool, 3))
        m = rng.choice(pool)
        assert member(o2, m, family) == _member_point_oracle(o2, m, family, tails)


def test_generated_spectrum_examples(o2):
    sa = path_isometry(o2, fpath("a"))
    ab = mono_element(o2, cyl(fpath("a"), fpath("b")))
    ev = empty_path("v")
    assert generated_spectrum([sa]).cylinders == frozenset({cyl(fpath("a"), ev)})
    assert generated_spectrum([sa + ab]).cylinders == frozenset(
        {cyl(fpath("a"), ev), cyl(fpath("a"), fpath("b"))}
    )
    merged = generated_spectrum(
        [
            mono_element(o2, cyl(fpath("a", "a"), fpath("b", "a"))),
            mono_element(o2, cyl(fpath("a", "b"), fpath("b", "b"))),
        ]
    )
    assert merged.cylinders == frozenset({cyl(fpath("a"), fpath("b"))})
    with pytest.raises(BadInputError):
        generated_spectrum([])


def test_bimodule_member_basics(o2):
    gens = [path_isometry(o2, fpath("a"))]
    assert bimodule_member(path_isometry(o2, fpath("a")).scale(3), gens)
    assert bimodule_member(mono_element(o2, cyl(fpath("a", "a"), fpath("a"))), gens)
    assert not bimodule_member(path_isometry(o2, fpath("b")), gens)
    assert not bimodule_member(path_isometry(o2, fpath("a")).adjoint(), gens)
    assert bimodule_member(vertex_projection(o2, "v") - vertex_projection(o2, "v"), gens)


def test_bimodule_member_rejects_generators_over_another_graph(o2):
    twin = build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")], order=["a", "b"])
    gens = [path_isometry(twin, fpath("a"))]
    with pytest.raises(BadInputError, match="different graphs"):
        bimodule_member(path_isometry(o2, fpath("a")), gens)


def test_bimodule_member_decides_the_spectral_closure(single_loop):
    # One vertex, one loop: the diagonal is C p_v, so the span of D (p_v + S_a) D
    # holds only multiples of p_v + S_a, yet all three share its spectrum.
    g = underlying(single_loop)
    p, s = vertex_projection(g, "v"), path_isometry(g, fpath("a"))
    for a in (s, p, p - s):
        assert bimodule_member(a, [p + s])


def test_spectrum_refuses_sources():
    g = build_graph(["u", "v"], [("a", "v", "v"), ("f", "v", "u")])
    p_u = CKMono(empty_path("u"), empty_path("u"))
    with pytest.raises(PreconditionError, match="u is the range of no edge"):
        SpectrumSet(g, [p_u])
    with pytest.raises(PreconditionError, match="u is the range of no edge"):
        spectrum_from_json_obj(g, [{"alpha": [], "beta": [], "anchor": "u"}])


def test_spectrum_loader_checks_each_monomial_once(o2, monkeypatch):
    calls = counting_check_mono(monkeypatch)
    obj = [{"alpha": ["a"], "beta": ["b"]}, {"alpha": ["b"], "beta": ["b"]}]
    s = spectrum_from_json_obj(o2, obj)
    assert len(calls) == 2
    assert s == SpectrumSet(o2, [cyl(fpath("a"), fpath("b")), cyl(fpath("b"), fpath("b"))])


def test_spectrum_loader_reports_a_bad_set_before_a_source():
    g = build_graph(["v", "u"], [("a", "v", "v"), ("c", "v", "u")])
    with pytest.raises(InvalidGraphError, match="zz"):
        spectrum_from_json_obj(g, [{"alpha": ["zz"], "beta": [], "anchor": "v"}])


def test_spectrum_refuses_an_unknown_edge(bridge):
    with pytest.raises(InvalidGraphError, match="zz"):
        SpectrumSet(bridge, [cyl(fpath("c"), fpath("zz"))])


def test_from_cylinders_refuses_paths_with_two_sources(bridge):
    with pytest.raises(BadInputError, match="share a source"):
        SpectrumSet.from_cylinders(bridge, [cyl(fpath("a"), fpath("h"))])


def test_member_refuses_an_invalid_monomial(bridge):
    spectrum = SpectrumSet(bridge, [cyl(empty_path("v"), empty_path("v"))])
    with pytest.raises(BadInputError, match="share a source"):
        member(bridge, cyl(fpath("a"), fpath("h")), spectrum)
    with pytest.raises(InvalidGraphError, match="zz"):
        member(bridge, cyl(fpath("zz"), fpath("zz")), spectrum)


def test_spectra_over_different_graphs_differ(o2):
    twin = build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")], order=["a", "b"])
    sets = [cyl(fpath("a"), fpath("b"))]
    assert SpectrumSet(o2, sets) != SpectrumSet(twin, sets)
    assert SpectrumSet(o2, sets) == SpectrumSet(underlying(o2), sets)


def test_member_rejects_a_spectrum_over_another_graph(o2):
    twin = build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")], order=["a", "b"])
    spectrum = SpectrumSet(o2, [cyl(fpath("a"), fpath("b"))])
    m = cyl(fpath("a", "a"), fpath("b", "a"))
    assert member(o2, m, spectrum)
    with pytest.raises(BadInputError, match="different graph"):
        member(twin, m, spectrum)


def test_bimodule_member_closed_under_refinement(o2, e2):
    rng = make_rng(23)
    for g in (o2, e2):
        for _ in range(15):
            a = rand_element(g, rng, n_terms=3, max_len=2)
            if a.is_zero():
                continue
            gens = [a]
            assert bimodule_member(a, gens)
            for m in a.monomials():
                for child in refine_children(g, m):
                    assert bimodule_member(mono_element(g, child), gens)


def test_ck_in_analytic_examples(o2):
    one = LocallyConstantFn.constant(1)
    sa = cyl(fpath("a"), empty_path("v"))
    assert ck_in_analytic(o2, one, sa)
    assert not ck_in_analytic(o2, one, sa.adjoint())
    assert ck_in_analytic(o2, one, cyl(fpath("a"), fpath("b")))
    assert ck_in_analytic(o2, one, cyl(empty_path("v"), empty_path("v")))


def test_ck_in_analytic_signed_weights(o2):
    f = LocallyConstantFn.from_weights({"a": 1, "b": -1})
    # The cocycle totals +1 per a-step and -1 per b-step on the alpha leg,
    # reversed on the beta leg.
    assert ck_in_analytic(o2, f, cyl(fpath("a", "a"), empty_path("v")))
    assert not ck_in_analytic(o2, f, cyl(fpath("b"), empty_path("v")))
    assert ck_in_analytic(o2, f, cyl(fpath("a"), fpath("b")))
    assert not ck_in_analytic(o2, f, cyl(fpath("b"), fpath("a")))


def test_spectrum_json_round_trip(o2):
    rng = make_rng(24)
    pool = all_monos(o2, 2)
    for _ in range(10):
        s = SpectrumSet.from_cylinders(o2, rng.sample(pool, 4))
        obj = spectrum_to_json_obj(s)
        back = spectrum_from_json_obj(o2, obj)
        assert back == s
    with pytest.raises(BadInputError):
        spectrum_from_json_obj(o2, {"alpha": []})


def _drop_last(g, p):
    if len(p) > 1:
        return fpath(*p.edges[:-1])
    return empty_path(path_range(g, p))


def _from_cylinders_all_pairs(g, cylinders):
    """Reference coarsening: the fixpoint with an all-pairs containment scan."""
    work = set(cylinders)
    changed = True
    while changed:
        changed = False
        drop = {c for c in work for d in work if c != d and cyl_contains(g, c, d)}
        if drop:
            work -= drop
            changed = True
        parents = {}
        for c in work:
            if c.alpha.is_empty or c.beta.is_empty:
                continue
            if c.alpha.edges[-1] != c.beta.edges[-1]:
                continue
            parent = cyl(_drop_last(g, c.alpha), _drop_last(g, c.beta))
            parents.setdefault(parent, set()).add(c.alpha.edges[-1])
        for parent, have in parents.items():
            need = {e.id for e in g.in_edges(mono_source(g, parent))}
            if need and have >= need:
                for child in refine_children(g, parent):
                    work.discard(child)
                work.add(parent)
                changed = True
    return work


def _member_all_pairs(g, m, spectrum):
    """Reference membership: every refined piece inside some same-degree member."""
    peers = [c for c in spectrum.cylinders if c.degree == m.degree]
    if not peers:
        return False
    depth = max(len(m.beta), max(len(c.beta) for c in peers))
    pieces = [m]
    while pieces and len(pieces[0].beta) < depth:
        pieces = [child for p in pieces for child in refine_children(g, p)]
    return all(any(cyl_contains(g, p, c) for c in peers) for p in pieces)


def test_coarsening_and_membership_match_all_pairs_reference(o2, e2):
    rng = make_rng(41)
    for g in (underlying(o2), underlying(e2)):
        pool = all_monos(g, 2)
        empties = [m for m in pool if m.alpha.is_empty or m.beta.is_empty]
        probes = all_monos(g, 3)
        for _ in range(40):
            family = rng.sample(pool, rng.randint(1, 12)) + rng.sample(empties, 2)
            for m in rng.sample(family, 3):
                family += refine_children(g, m)
            spectrum = SpectrumSet.from_cylinders(g, family)
            assert spectrum.cylinders == frozenset(_from_cylinders_all_pairs(g, family))
            for m in rng.sample(probes, 40) + family:
                assert member(g, m, spectrum) == _member_all_pairs(g, m, spectrum)


def test_ck_in_analytic_rejects_sources():
    # u is the range of no edge; S_f has source u and S_a does not, but both
    # carry the cocycle value -1, so neither is in the analytic subalgebra.
    g = build_graph(["u", "v"], [("a", "v", "v"), ("f", "v", "u")])
    f = LocallyConstantFn(1, {("a",): -1, ("f",): -1})
    for m in (CKMono(fpath("f"), empty_path("u")), CKMono(fpath("a"), empty_path("v"))):
        with pytest.raises(PreconditionError, match="u is the range of no edge"):
            ck_in_analytic(g, f, m)


@pytest.mark.parametrize("name", ["single_loop", "c2", "loop3", "loop3e"])
def test_coarsening_matches_all_pairs_reference_on_more_graphs(name, request):
    """The other fixtures have vertices with one in-edge, where a set and its
    only child are the same set and must coarsen to the parent."""
    g = underlying(request.getfixturevalue(name))
    rng = make_rng(43)
    pool = all_monos(g, 2)
    probes = all_monos(g, 3)
    for _ in range(30):
        family = rng.sample(pool, min(len(pool), rng.randint(1, 8)))
        for m in rng.sample(family, 1):
            family += refine_children(g, m)
        spectrum = SpectrumSet.from_cylinders(g, family)
        assert spectrum.cylinders == frozenset(_from_cylinders_all_pairs(g, family))
        for m in rng.sample(probes, min(len(probes), 30)) + family:
            assert member(g, m, spectrum) == _member_all_pairs(g, m, spectrum)
