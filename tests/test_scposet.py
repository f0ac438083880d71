import ast
import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import random

import pytest

from cechstrat import (
    CapExceeded,
    HasseDiagram,
    PosetUniverse,
    SimplicialComplex,
    canonical_form,
    compose,
    dominates,
    enumerate_classes,
    export_dot,
    hasse,
    is_simplicial,
    make_complex,
    upset,
)
from cechstrat import _bits, _kernels, complexes, scposet
from cechstrat._bits import vertices_of

from conftest import FIG2_MAP_C_TO_D, fig2_complexes, package_modules, random_complex

#: sha256 of the DOT Hasse diagram followed by the universe JSON (as
#: ``cechstrat enumerate --max-vertices 5`` writes them), as an all-pairs
#: witness search over lexicographically least representatives gives them
ENUM5_SHA256 = "08665fc97ca899b3bd299a51753b75b6689fd5a40da45eeb91fd00d4f0b367eb"


@pytest.fixture(scope="module")
def universe5():
    return enumerate_classes(5)


def facet_submasks(mask):
    """Submasks obtained by dropping exactly one vertex."""
    m = mask
    while m:
        low = m & -m
        yield mask ^ low
        m ^= low


def _recursive_labeled_complexes(n):
    """Reference generator: each downward-closed family on exactly n labeled
    vertices as a sorted mask tuple, by deciding the simplices of size >= 2
    one at a time in (size, mask) order."""
    candidates = sorted(
        (m for m in range(1 << n) if m.bit_count() >= 2),
        key=lambda m: (m.bit_count(), m),
    )
    singletons = [1 << v for v in range(n)]
    family = set()

    def rec(i):
        if i == len(candidates):
            yield tuple(singletons) + tuple(sorted(family))
            return
        yield from rec(i + 1)
        m = candidates[i]
        if all(face.bit_count() < 2 or face in family for face in facet_submasks(m)):
            family.add(m)
            yield from rec(i + 1)
            family.remove(m)

    yield from rec(0)


def labeled_families(n):
    """The reference generator's complexes as family bitsets."""
    return [sum(1 << m for m in masks) for masks in _recursive_labeled_complexes(n)]


def orbit_count(n):
    """Classes on exactly n vertices by orbit counting, independent of the
    enumeration's own relabelling tables: the number of orbits is the
    average, over vertex permutations, of the labelled families they fix."""
    families = [frozenset(masks) for masks in _recursive_labeled_complexes(n)]
    perms = list(itertools.permutations(range(n)))
    fixed_total = 0
    for perm in perms:
        image = {m: sum(1 << perm[v] for v in range(n) if m >> v & 1) for m in range(1, 1 << n)}
        fixed_total += sum(frozenset(map(image.__getitem__, fam)) == fam for fam in families)
    return fixed_total / len(perms)


def _domination_matrix(classes, witness=_kernels.surjection_witness):
    """``a >= b`` for every ordered pair, each by its own witness search."""
    return [[witness(a.n_vertices, b.n_vertices, a.canonical.masks, b.canonical.masks)
              is not None for b in classes] for a in classes]


def relabelled(c, rng):
    """``c`` under a random vertex permutation."""
    perm = list(range(c.n_vertices))
    rng.shuffle(perm)
    return SimplicialComplex(
        c.n_vertices, [sum(1 << perm[v] for v in vertices_of(m)) for m in c.masks])


@pytest.fixture
def searches(monkeypatch):
    """Arguments of every witness search the kernels run during the test."""
    calls = []
    witness = _kernels.surjection_witness

    def counting(*args):
        calls.append(args)
        return witness(*args)

    monkeypatch.setattr(_kernels, "surjection_witness", counting)
    return calls


class TestDominates:
    def test_six_vertex_collapse_witness_exists(self):
        c, d, _ = fig2_complexes()
        w = dominates(c, d)
        assert w is not None
        assert is_simplicial(w) and w.is_vertex_surjective()
        # the published assignment is itself a valid witness
        from cechstrat import SimplicialMap

        ref = SimplicialMap(c, d, FIG2_MAP_C_TO_D)
        assert is_simplicial(ref) and ref.is_vertex_surjective()

    def test_identity_witness_on_self(self, named):
        for c in named.values():
            w = dominates(c, c)
            assert w is not None
            assert is_simplicial(w) and w.is_vertex_surjective()

    def test_path_does_not_dominate_two_points(self, named):
        assert dominates(named["path3"], named["two_points"]) is None

    def test_witness_is_deterministic(self, named):
        a = named["filled3"]
        b = named["edge"]
        w1 = dominates(a, b)
        w2 = dominates(a, b)
        assert w1 == w2

    def test_vertex_cap(self):
        big = make_complex(9, [])
        with pytest.raises(CapExceeded):
            dominates(big, big)

    def test_invariants_exclude_without_a_search(self, named, searches):
        path4 = make_complex(4, [{0, 1}, {1, 2}, {2, 3}])
        star4 = make_complex(4, [{0, 1}, {0, 2}, {0, 3}])
        excluded = [
            (named["edge"], named["discrete3"]),      # fewer vertices
            (named["path3"], named["two_points"]),    # fewer components
            (named["filled3"], named["cycle3"]),      # a simplex count above
            (path4, star4),                           # equal f-vectors, not isomorphic
            (make_complex(4, [{0, 1, 2, 3}]), named["path3"]),  # no two vertices free
        ]
        for a, b in excluded:
            assert dominates(a, b) is None
        assert searches == []

    def test_free_sizes_exclude_no_pair_with_a_witness(self, universe5, searches):
        """Where ``dominates`` refuses a pair of classes up to five vertices
        without a search, the kernel finds no map either; past the
        component count, that is the free-set rule's doing 804 times."""
        witness = _kernels.backends[_kernels.BACKEND].surjection_witness
        classes = [c.canonical for c in universe5.classes]
        by_free_sizes = 0
        for a, b in itertools.product(classes, repeat=2):
            if a.n_vertices > b.n_vertices:
                searches.clear()
                if dominates(a, b) is None and not searches:
                    assert witness(a.n_vertices, b.n_vertices, a.masks, b.masks) is None
                    by_free_sizes += a.n_components >= b.n_components
        assert by_free_sizes == 804

    def test_first_witness_of_the_kernel_on_relabelled_classes(self):
        rng = random.Random(23)
        classes = [relabelled(c.canonical, rng) for c in enumerate_classes(4).classes]
        pairs = list(itertools.product(classes, repeat=2))
        pairs += [(c, relabelled(c, rng)) for c in classes]
        for a, b in pairs:
            got = dominates(a, b)
            assert (got and got.vertex_map) == _kernels.surjection_witness(
                a.n_vertices, b.n_vertices, a.masks, b.masks)

    def test_only_dominates_searches_for_witnesses(self):
        """No caller in the package reaches the kernel past the invariant rules."""
        callers = set()
        for module in package_modules():
            try:
                tree = ast.parse(inspect.getsource(module))
            except (OSError, TypeError):
                continue
            calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and getattr(node.func, "attr", getattr(node.func, "id", None))
                     == "surjection_witness"}
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inside = calls & set(ast.walk(fn))
                    if inside:
                        callers.add(f"{module.__name__}.{fn.name}")
                        calls -= inside
            if calls:  # at module level
                callers.add(module.__name__)
        assert callers == {"cechstrat.scposet.dominates"}

    def test_exhaustive_agreement_on_small_pairs(self):
        # oracle: brute force over all vertex maps
        rng = random.Random(5)
        for _ in range(60):
            a, b = random_complex(rng, 4), random_complex(rng, 4)
            found = None
            for vm in itertools.product(range(b.n_vertices), repeat=a.n_vertices):
                if len(set(vm)) != b.n_vertices:
                    continue
                from cechstrat import SimplicialMap

                cand = SimplicialMap(a, b, vm)
                if is_simplicial(cand):
                    found = cand
                    break
            got = dominates(a, b)
            assert (got is None) == (found is None)
            if got is not None:
                assert is_simplicial(got) and got.is_vertex_surjective()


class TestPartialOrderAxioms:
    def test_vertex_count_monotonicity(self):
        rng = random.Random(17)
        for _ in range(80):
            a, b = random_complex(rng, 4), random_complex(rng, 4)
            if dominates(a, b) is not None:
                assert a.n_vertices >= b.n_vertices

    def test_antisymmetry(self):
        rng = random.Random(19)
        for _ in range(80):
            a, b = random_complex(rng, 4), random_complex(rng, 4)
            if dominates(a, b) is not None and dominates(b, a) is not None:
                assert canonical_form(a).key == canonical_form(b).key

    def test_transitivity_with_composed_witness(self):
        rng = random.Random(29)
        hits = 0
        while hits < 30:
            a, b, c = (random_complex(rng, 4) for _ in range(3))
            f, g = dominates(a, b), dominates(b, c)
            if f is None or g is None:
                continue
            hits += 1
            assert dominates(a, c) is not None
            h = compose(f, g)
            assert is_simplicial(h) and h.is_vertex_surjective()


class TestEnumeration:
    def test_single_vertex(self):
        assert len(enumerate_classes(1).classes) == 1

    def test_two_vertices(self):
        u = enumerate_classes(2)
        assert len(u.classes) == 3

    def test_three_vertices(self):
        u = enumerate_classes(3)
        assert len(u.classes) == 8

    @pytest.mark.parametrize("n", range(1, 6))
    def test_class_orbits_are_the_labeled_complexes(self, n, universe5):
        """Growth from the discrete complex reaches every class once: the
        orbits of the classes found are disjoint and cover every labeled
        complex on n vertices."""
        orbits = [set(_bits.relabellings(n, c.canonical.family))
                  for c in universe5.classes if c.n_vertices == n]
        families = set().union(*orbits)
        assert sum(map(len, orbits)) == len(families)
        assert families == set(labeled_families(n))

    def test_counts_match_orbit_counting(self):
        for n, expected in [(1, 1), (2, 2), (3, 5), (4, 20)]:
            assert orbit_count(n) == expected
        assert len(enumerate_classes(4).classes) == 1 + 2 + 5 + 20

    def test_relation_is_reflexive_antisymmetric_transitive(self):
        u = enumerate_classes(3)
        n = len(u.classes)
        rel = u.relation
        for i in range(n):
            assert rel[i][i]
            for j in range(n):
                if i != j and rel[i][j]:
                    assert not rel[j][i]
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_classes(6)

    def test_five_vertices_full_default_cap(self, universe5):
        u = universe5
        assert len(u.classes) == 1 + 2 + 5 + 20 + 180
        h = hasse(u)
        assert len(h.cover_edges) == 547
        # reduction then closure recovers the strict relation
        import numpy as np

        n = len(u.classes)
        adj = np.zeros((n, n), dtype=bool)
        for i, j in h.cover_edges:
            adj[i][j] = True
        reach = adj.copy()
        for _ in range(n):
            new = reach | (reach @ reach)
            if (new == reach).all():
                break
            reach = new
        strict = np.array(u.relation, dtype=bool) & ~np.eye(n, dtype=bool)
        assert (reach == strict).all()

    def test_five_vertex_orbit_count(self):
        assert len(labeled_families(5)) == 6894
        assert orbit_count(5) == 180

    def test_five_vertex_output_bytes(self, universe5):
        text = (export_dot(hasse(universe5))
                + json.dumps(universe5.to_json_dict(), sort_keys=True, indent=2) + "\n")
        assert hashlib.sha256(text.encode()).hexdigest() == ENUM5_SHA256

    @pytest.mark.parametrize("backend", sorted(_kernels.backends))
    def test_relation_equals_all_pairs_search(self, backend):
        witness = _kernels.backends[backend].surjection_witness
        for n_max in range(1, 5):
            u = enumerate_classes(n_max)
            expected = _domination_matrix(u.classes, witness)
            assert [list(row) for row in u.relation] == expected, n_max

    def test_one_labelling_per_class_and_few_searches(self, monkeypatch, searches):
        complexes._canonical_cached.cache_clear()
        complexes._iso_class.cache_clear()
        calls = {"canonical_masks": 0}
        canonical_masks = _kernels.canonical_masks

        def counting_canonical(*args):
            calls["canonical_masks"] += 1
            return canonical_masks(*args)

        monkeypatch.setattr(_kernels, "canonical_masks", counting_canonical)
        u = enumerate_classes(5)
        assert calls["canonical_masks"] == len(u.classes) == 208
        assert len(searches) == 210

    def test_no_search_between_equal_vertex_counts(self, searches):
        """Pairs of equal vertex counts are read off one-simplex additions."""
        enumerate_classes(5)
        assert searches
        assert all(n_src > n_tgt for n_src, n_tgt, _, _ in searches)

    def test_addable_masks_match_brute_force(self, universe5):
        for cls in universe5.classes:
            c = cls.canonical
            expected = [m for m in range(1 << c.n_vertices)
                        if m.bit_count() >= 2 and m not in c.masks
                        and all(face in c.masks for face in facet_submasks(m))]
            assert list(vertices_of(scposet._addable(c.n_vertices, c.family))) == expected


class TestEnumerationRules:
    """Each rule ``enumerate_classes`` decides a pair by, against the
    witness search on every pair of classes with at most four vertices."""

    @pytest.fixture(scope="class")
    def four(self):
        classes = enumerate_classes(4).classes
        return classes, _domination_matrix(classes)

    def test_components_never_increase(self, four):
        classes, ge = four
        count = [c.canonical.n_components for c in classes]
        fired = 0
        for a, b in itertools.product(range(len(classes)), repeat=2):
            if count[a] < count[b]:
                fired += 1
                assert not ge[a][b]
        assert fired

    def test_component_count(self, named):
        counts = {name: c.n_components for name, c in named.items()}
        assert counts == {"point": 1, "two_points": 2, "edge": 1, "discrete3": 3,
                          "edge_plus_point": 2, "path3": 1, "cycle3": 1, "filled3": 1}

    def test_f_vectors_of_a_bijection(self, four):
        classes, ge = four
        f = [c.canonical.f_vector for c in classes]
        larger = equal = 0
        for a, b in itertools.product(range(len(classes)), repeat=2):
            if a == b or classes[a].n_vertices != classes[b].n_vertices:
                continue
            if scposet._bijection_excluded(f[a], f[b]):
                assert not ge[a][b]
                larger += any(x > y for x, y in zip(f[a], f[b]))
                equal += f[a] == f[b]
        assert larger and equal

    def test_transitivity_both_ways(self, four):
        classes, ge = four
        size = len(classes)
        through = above = below = 0
        for a, b, c in itertools.product(range(size), repeat=3):
            if ge[a][c] and ge[c][b]:
                through += 1
                assert ge[a][b]
            if ge[c][a] and not ge[c][b]:
                above += 1
                assert not ge[a][b]
            if ge[b][c] and not ge[a][c]:
                below += 1
                assert not ge[a][b]
        assert through and above and below


class TestUpset:
    def test_point_is_below_everything(self, named_classes):
        u = enumerate_classes(3)
        up = upset(named_classes["point"], u)
        assert len(up) == 8

    def test_upset_of_filled_triangle(self, named_classes):
        u = enumerate_classes(3)
        up = {c.key for c in upset(named_classes["filled3"], u)}
        expected = {
            named_classes[k].key
            for k in ("discrete3", "edge_plus_point", "path3", "cycle3", "filled3")
        }
        assert up == expected

    def test_maximal_three_vertex_class_contains_itself(self, named_classes):
        u = enumerate_classes(3)
        up = upset(named_classes["discrete3"], u)
        assert named_classes["discrete3"].key in {c.key for c in up}
        # nothing else with three or fewer vertices dominates it
        assert {c.key for c in up} == {named_classes["discrete3"].key}

    def test_unknown_class_rejected(self, named_classes):
        u = enumerate_classes(2)
        with pytest.raises(ValueError):
            upset(named_classes["discrete3"], u)


def _named_cover_set(named_classes, universe):
    key_to_name = {cls.key: name for name, cls in named_classes.items()}
    names = {}
    for i, cls in enumerate(universe.classes):
        names[i] = key_to_name[cls.key]
    return names


class TestHasse:
    def test_two_vertex_covers(self, named_classes):
        u = enumerate_classes(2)
        h = hasse(u)
        names = _named_cover_set(named_classes, u)
        covers = {(names[i], names[j]) for i, j in h.cover_edges}
        assert covers == {("two_points", "edge"), ("edge", "point")}

    def test_three_vertex_covers_match_expected_arrows(self, named_classes):
        u = enumerate_classes(3)
        h = hasse(u)
        names = _named_cover_set(named_classes, u)
        covers = {(names[i], names[j]) for i, j in h.cover_edges}
        assert covers == {
            ("discrete3", "edge_plus_point"),
            ("edge_plus_point", "path3"),
            ("path3", "cycle3"),
            ("cycle3", "filled3"),
            ("two_points", "edge"),
            ("edge_plus_point", "two_points"),
            ("edge", "point"),
            ("filled3", "edge"),
        }

    def test_cover_edges_within_strict_relation(self):
        u = enumerate_classes(3)
        h = hasse(u)
        for i, j in h.cover_edges:
            assert i != j and u.relation[i][j]

    def test_reduction_then_closure_recovers_strict_relation(self):
        u = enumerate_classes(4)
        h = hasse(u)
        n = len(u.classes)
        adj = [[False] * n for _ in range(n)]
        for i, j in h.cover_edges:
            adj[i][j] = True
        # transitive closure by repeated squaring of reachability
        reach = [row[:] for row in adj]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    if not reach[i][j] and any(reach[i][k] and reach[k][j] for k in range(n)):
                        reach[i][j] = True
                        changed = True
        for i in range(n):
            for j in range(n):
                strict = u.relation[i][j] and i != j
                assert reach[i][j] == strict


class TestExportDot:
    def test_empty_diagram_skeleton(self):
        text = export_dot(HasseDiagram((), ()))
        assert text.startswith("digraph")
        assert "{" in text and "}" in text
        assert "->" not in text

    def test_two_vertex_diagram(self):
        u = enumerate_classes(2)
        text = export_dot(hasse(u))
        assert text.count("label=") == 3
        assert text.count("->") == 2

    def test_three_vertex_diagram(self):
        u = enumerate_classes(3)
        text = export_dot(hasse(u))
        assert text.count("label=") == 8
        assert text.count("->") == 8

    def test_deterministic(self):
        u = enumerate_classes(3)
        assert export_dot(hasse(u)) == export_dot(hasse(u))


class TestUniverseJson:
    def test_round_trip(self):
        u = enumerate_classes(3)
        blob = json.dumps(u.to_json_dict(), sort_keys=True)
        restored = PosetUniverse.from_json_dict(json.loads(blob))
        assert restored.n_max == u.n_max
        assert [c.key for c in restored.classes] == [c.key for c in u.classes]
        assert restored.relation == u.relation

    @pytest.mark.parametrize("n_max", range(1, 5))
    def test_hasse_and_upsets_survive_the_round_trip(self, n_max):
        u = enumerate_classes(n_max)
        restored = PosetUniverse.from_json_dict(json.loads(json.dumps(u.to_json_dict())))
        assert restored.ge == u.ge
        assert hasse(restored) == hasse(u)
        for cls in u.classes:
            assert upset(cls, restored) == upset(cls, u)

    @pytest.mark.parametrize("field, value, message", [
        ("n_max", 2.7, '"n_max" must be an integer, got 2.7'),
        ("n_max", True, '"n_max" must be an integer, got True'),
        ("classes", {"0": 1}, '"classes" must be an array'),
        ("relation", "1", '"relation" must be an array'),
        ("relation", [[1]], "a relation row must be an array of booleans, got [1]"),
        ("relation", [[True, "no", 0]], "a relation row must be an array of booleans"),
        ("relation", [[True, False, False]], "a relation row needs 1 entries, got [True, False, False]"),
        ("relation", [[]], "a relation row needs 1 entries, got []"),
    ])
    def test_reader_refuses_mistyped_fields(self, field, value, message):
        data = {**enumerate_classes(1).to_json_dict(), field: value}
        with pytest.raises(ValueError) as err:
            PosetUniverse.from_json_dict(data)
        assert str(err.value).startswith(f"universe JSON: {message}")

    def test_reader_refuses_a_row_count_other_than_the_class_count(self):
        data = enumerate_classes(2).to_json_dict()
        for rows in (data["relation"][:2], data["relation"] + [[True, True, True]]):
            with pytest.raises(ValueError, match="one bitset row per class"):
                PosetUniverse.from_json_dict({**data, "relation": rows})


    def test_reader_refuses_classes_above_n_max(self):
        data = {**enumerate_classes(3).to_json_dict(), "n_max": 1}
        with pytest.raises(ValueError, match="universe JSON: a class has 2 vertices, above n_max = 1"):
            PosetUniverse.from_json_dict(data)

    def test_reader_refuses_an_all_true_relation(self):
        data = enumerate_classes(3).to_json_dict()
        data["relation"] = [[True] * 8 for _ in range(8)]
        with pytest.raises(ValueError, match="universe JSON: the relation is not antisymmetric"):
            PosetUniverse.from_json_dict(data)

    @pytest.mark.parametrize("a, b, message", [
        (0, 0, "not reflexive at class 0"),  # the point not above itself
        (2, 1, "not antisymmetric: classes 1 and 2"),  # the edge above two points, and below
        (3, 0, "not transitive: class 3 is above class 1"),  # a 3-vertex class not above the point
    ])
    def test_reader_refuses_each_broken_axiom(self, a, b, message):
        data = enumerate_classes(3).to_json_dict()
        data["relation"][a][b] = not data["relation"][a][b]
        with pytest.raises(ValueError, match=f"universe JSON: the relation is {message}"):
            PosetUniverse.from_json_dict(data)


class TestOrbitWalk:
    """The orbit of a family bitset, taken in one wide-integer pass by
    ``_bits.relabellings``: each new class of the enumeration marks its
    orbit by it, and the ``canonical_masks`` of both backends takes the
    least of it up to five vertices."""

    @staticmethod
    def relabellings(n, family):
        masks = vertices_of(family)
        return {sum(1 << sum(1 << perm[v] for v in vertices_of(m)) for m in masks)
                for perm in itertools.permutations(range(n))}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_labelled_complex_up_to_four_vertices(self, n):
        for family in labeled_families(n):
            assert set(_bits.relabellings(n, family)) == self.relabellings(n, family)

    def test_a_sample_on_five_vertices(self):
        for family in random.Random(37).sample(labeled_families(5), 60):
            assert set(_bits.relabellings(5, family)) == self.relabellings(5, family)

    @pytest.mark.parametrize("n", range(len(_bits.NETWORKS)))
    def test_random_families_complexes_or_not(self, n):
        # any set of masks, the empty one included, relabels as a set
        rng = random.Random(n)
        for _ in range(40):
            family = rng.getrandbits(1 << n)
            lanes = _bits.relabellings(n, family)
            assert len(lanes) == math.factorial(n)
            assert set(lanes) == self.relabellings(n, family)

    @pytest.mark.parametrize("n", range(len(_bits.NETWORKS)))
    def test_swaps_reach_each_permutation_once(self, n):
        # masks 0, {0}, {0, 1}, ..., {0, ..., n-2}: a chain that only the
        # identity maps onto itself, so n! relabellings give n! families
        family = sum(1 << (1 << k) - 1 for k in range(n))
        assert len(set(_bits.relabellings(n, family))) == math.factorial(n)

    def test_the_tables_cover_up_to_five_vertices(self):
        assert len(_bits.NETWORKS) == 6
        assert [len(layers) for _, layers, _ in _bits.NETWORKS] == [0, 0, 1, 3, 6, 10]


class TestBitsetRows:
    """The universe holds the relation as bitset rows, which enumeration
    fills and the Hasse diagram and upsets read; only ``relation`` builds
    the matrix of bools."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(PosetUniverse)] == ["classes", "ge", "n_max"]

    def test_rows_are_the_relation(self):
        u = enumerate_classes(3)
        assert all(type(row) is int for row in u.ge)
        assert u.relation == tuple(tuple(bool(row >> b & 1) for b in range(len(u.classes)))
                                   for row in u.ge)

    def test_no_matrix_built_by_enumeration_hasse_or_upset(self):
        u = enumerate_classes(4)
        hasse(u)
        upset(u.classes[0], u)
        assert "relation" not in vars(u)

    def test_rows_are_checked(self):
        classes = enumerate_classes(2).classes
        for ge in ((0b001, 0b011), (0b001, 0b011, 0b111, 0b0), (0b001, 0b011, 0b1101), (-1, 0, 0)):
            with pytest.raises(ValueError, match="one bitset row per class"):
                PosetUniverse(classes, ge, 2)
