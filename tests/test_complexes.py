import inspect
import itertools
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cechstrat import (
    CapExceeded,
    SimplicialComplex,
    SimplicialMap,
    are_isomorphic,
    canonical_form,
    compose,
    identity_map,
    is_simplicial,
    make_complex,
)
from cechstrat import complexes
from cechstrat._bits import holding, mask_of, vertices_of

from conftest import FIG2_MAP_C_TO_D, fig2_complexes, random_complex


def reference_is_simplicial(m):
    """The definition: every source simplex's image is a target simplex."""
    vm, present = m.vertex_map, set(m.target.masks)
    return all(mask_of(vm[v] for v in vertices_of(s)) in present for s in m.source.masks)


def without(c, mask):
    """``c`` without a maximal simplex ``mask``."""
    return SimplicialComplex(c.n_vertices, set(c.masks) - {mask})


class TestMakeComplex:
    def test_closure_of_one_edge(self):
        c = make_complex(2, [{0, 1}])
        assert c.simplices == ((0,), (1,), (0, 1))

    def test_discrete_complex(self):
        c = make_complex(3, [])
        assert c.simplices == ((0,), (1,), (2,))

    def test_filled_triangle_has_seven_simplices(self):
        c = make_complex(3, [{0, 1, 2}])
        assert len(c.simplices) == 7
        # independent count: all nonempty subsets of a 3-set
        assert len(c.simplices) == 2**3 - 1

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            make_complex(2, [{0, 2}])

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            make_complex(0, [])

    @pytest.mark.parametrize("generator", [(0, 1.5), (True, 2), ("0", "2")])
    def test_rejects_a_vertex_that_is_not_an_integer(self, generator):
        # as a simplicial map refuses it as a vertex image
        message = f"generator {re.escape(repr(generator))} has a vertex that is not an integer"
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_complex(3, [generator])

    def test_numpy_integers_and_ranges_are_vertices(self):
        np = pytest.importorskip("numpy")
        assert make_complex(3, [np.array([0, 2])]).masks == (1, 2, 4, 5)
        assert make_complex(3, [(np.int64(1), np.int32(2))]).masks == (1, 2, 4, 6)
        assert make_complex(3, [range(3)]) == make_complex(3, [{0, 1, 2}])

    def test_output_is_downward_closed(self):
        rng = random.Random(7)
        for _ in range(50):
            c = random_complex(rng)
            # re-validation happens in the constructor; also check directly
            present = set(c.simplices)
            for s in c.simplices:
                for k in range(1, len(s)):
                    for face in itertools.combinations(s, k):
                        assert face in present

    def test_constructor_rejects_missing_face(self):
        with pytest.raises(ValueError, match="downward closed"):
            SimplicialComplex(3, (0b001, 0b010, 0b100, 0b111))

    def test_constructor_rejects_missing_singleton(self):
        with pytest.raises(ValueError, match="singleton"):
            SimplicialComplex(3, (0b001, 0b010))

    @pytest.mark.parametrize(
        "masks, match",
        [
            ((0b001, 0b010, 0b100, 0b111), "downward closed"),
            ((0b001, 0b010), "singleton"),
            ((0b001, 0b010, 0b100, 0b1000), "outside"),
            ((0b001, 0b010, 0b100, 0), "empty"),
        ],
    )
    def test_from_masks_validates(self, masks, match):
        with pytest.raises(ValueError, match=match):
            SimplicialComplex(3, masks)

    def test_missing_face_names_the_first_vertex_and_lowest_face(self):
        # vertex 0 first: 15 without vertex 0 is 14, which is missing
        with pytest.raises(ValueError, match=r"^not downward closed: \(0, 1, 2, 3\) present "
                                             r"but face \(1, 2, 3\) missing$"):
            SimplicialComplex(4, (1, 2, 4, 8, 15))

    def test_checks_singletons_before_ranges_before_closure(self):
        with pytest.raises(ValueError, match="singleton"):
            SimplicialComplex(3, (0b001, 0b010, 0b1000, 0b110))
        with pytest.raises(ValueError, match="outside"):
            SimplicialComplex(3, (0b001, 0b010, 0b100, 0b111, 0b1000))

    @pytest.mark.parametrize("build", [
        lambda n: SimplicialComplex(n, [1 << v for v in range(n)]),
        lambda n: make_complex(n, []),
    ])
    def test_at_most_sixteen_vertices(self, build):
        assert build(16).n_vertices == 16
        with pytest.raises(ValueError, match="^a complex has at most 16 vertices, got 17$"):
            build(17)

    def test_family_is_the_masks_as_one_bitset(self):
        rng = random.Random(5)
        for _ in range(50):
            c = random_complex(rng)
            assert c.family == sum(1 << m for m in c.masks)
            assert c == SimplicialComplex(c.n_vertices, reversed(c.masks))
        assert "family" not in repr(c)

    def test_make_complex_closes_like_every_submask(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 7)
            gens = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 4))]
            closure = {1 << v for v in range(n)}
            for g in gens:
                m = mask_of(g)
                closure |= {s for s in range(1, m + 1) if s & m == s}
            assert make_complex(n, gens).masks == tuple(sorted(closure))

    def test_one_constructor_on_masks(self):
        # vertex tuples come in through make_complex only
        params = inspect.signature(SimplicialComplex).parameters
        assert [(p.name, p.default) for p in params.values()] == \
            [("n_vertices", inspect.Parameter.empty), ("masks", ())]
        assert not hasattr(SimplicialComplex, "from_masks")


def reference_facets(c):
    """The simplices in no larger simplex, by the definition."""
    maximal = [m for m in c.masks if not any(m != o and m & o == m for o in c.masks)]
    return tuple(sorted(map(vertices_of, maximal), key=lambda t: (len(t), t)))


class TestFacets:
    def test_random_complexes_of_one_to_eight_vertices(self):
        rng = random.Random(31)
        for n_max in range(1, 9):
            for _ in range(25):
                c = random_complex(rng, n_max)
                assert c.facets() == reference_facets(c)

    def test_full_simplex_on_sixteen_vertices(self):
        full = SimplicialComplex(16, range(1, 1 << 16))
        assert full.facets() == (tuple(range(16)),)

    def test_complex_without_vertices(self):
        assert SimplicialComplex(0).facets() == ()


def reference_free_sizes(c):
    """By simplex size k = 1..n, the largest vertex set holding no k-vertex
    simplex, by trying every vertex set."""
    return tuple(max(s.bit_count() for s in range(1 << c.n_vertices)
                     if not any(m.bit_count() == k and not m & ~s for m in c.masks))
                 for k in range(1, c.n_vertices + 1))


class TestFreeSizes:
    def test_random_complexes_of_one_to_eight_vertices(self):
        rng = random.Random(37)
        for n_max in range(1, 9):
            for _ in range(25):
                c = random_complex(rng, n_max)
                assert c.free_sizes == reference_free_sizes(c)

    def test_named_complexes(self):
        assert make_complex(4, []).free_sizes == (0, 4, 4, 4)
        assert make_complex(4, [range(4)]).free_sizes == (0, 1, 2, 3)
        assert make_complex(5, [{v, (v + 1) % 5} for v in range(5)]).free_sizes == (0, 2, 5, 5, 5)
        assert SimplicialComplex(0).free_sizes == ()

    def test_full_simplex_on_sixteen_vertices(self):
        full = SimplicialComplex(16, range(1, 1 << 16))
        assert full.free_sizes == tuple(range(16))


def test_holding_is_the_family_of_the_masks_with_the_vertex():
    # read from the import-time table up to five vertices, computed above
    for n in range(8):
        for v in range(n):
            assert holding(n, v) == sum(1 << m for m in range(1 << n) if m >> v & 1)


def test_vertices_of_lists_the_set_bits_ascending():
    # read from the import-time table below 2^8, by the set bits above
    for mask in range(1 << 12):
        assert vertices_of(mask) == tuple(v for v in range(12) if mask >> v & 1), mask
    assert vertices_of(1 << 40 | 5) == (0, 2, 40)


def reference_n_components(c):
    """The components by merging each simplex into every part it meets."""
    parts = []  # disjoint vertex sets, so a sum of them is their union
    for m in c.masks:
        parts = [p for p in parts if not p & m] + [m | sum(p for p in parts if p & m)]
    return len(parts)


class TestComponents:
    def test_random_complexes_of_one_to_nine_vertices(self):
        rng = random.Random(41)
        for n_max in range(1, 10):
            for _ in range(25):
                c = random_complex(rng, n_max)
                assert c.n_components == reference_n_components(c)

    def test_named_complexes(self):
        assert SimplicialComplex(0).n_components == 0
        assert make_complex(5, []).n_components == 5
        assert make_complex(5, [(0, 4), (1, 3)]).n_components == 3
        assert make_complex(5, [(0, 1, 2), (2, 4)]).n_components == 2
        assert make_complex(5, [{v, (v + 1) % 5} for v in range(5)]).n_components == 1


class TestIsSimplicial:
    def test_identity_on_edge(self):
        edge = make_complex(2, [{0, 1}])
        assert is_simplicial(identity_map(edge))

    def test_path_onto_two_points_fails_for_every_merge(self):
        path = make_complex(3, [{0, 1}, {1, 2}])
        two = make_complex(2, [])
        # the three vertex-surjective merge patterns all send an edge to a
        # non-simplex pair
        for vm in [(0, 0, 1), (0, 1, 1), (0, 1, 0)]:
            assert not is_simplicial(SimplicialMap(path, two, vm))

    def test_six_vertex_collapse_example(self):
        c, d, _ = fig2_complexes()
        assert is_simplicial(SimplicialMap(c, d, FIG2_MAP_C_TO_D))

    def test_random_maps_match_the_definition(self):
        rng = random.Random(29)
        seen = {True: 0, False: 0}
        for _ in range(600):
            source, target = random_complex(rng, 6), random_complex(rng, 6)
            vm = tuple(rng.randrange(target.n_vertices) for _ in range(source.n_vertices))
            m = SimplicialMap(source, target, vm)
            expected = reference_is_simplicial(m)
            assert is_simplicial(m) == expected
            seen[expected] += 1
        assert min(seen.values()) >= 100

    def test_identity_maps_match_the_definition(self):
        rng = random.Random(31)
        seen = {"nested": 0, "not nested": 0}
        for _ in range(300):
            source = random_complex(rng, 6)
            n = rng.randint(source.n_vertices, 7)
            generators = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(3)]
            if rng.random() < 0.5:  # a target holding the source
                generators += source.simplices
            target = make_complex(n, generators)
            m = SimplicialMap(source, target, tuple(range(source.n_vertices)))
            expected = reference_is_simplicial(m)
            assert is_simplicial(m) == expected
            assert expected == (set(source.masks) <= set(target.masks))
            seen["nested" if expected else "not nested"] += 1
        assert min(seen.values()) >= 50

    def test_relabellings_match_the_definition(self):
        # a relabelling onto a relabelled copy, some simplices dropped: not
        # an inclusion of the masks unless the relabelling is the identity
        rng = random.Random(43)
        seen = {True: 0, False: 0}
        for _ in range(300):
            source = random_complex(rng, 6)
            n = source.n_vertices
            perm = tuple(rng.sample(range(n), n))
            kept = [s for s in source.simplices if len(s) < 2 or rng.random() < 0.8]
            m = SimplicialMap(source, make_complex(n, [[perm[v] for v in s] for s in kept]), perm)
            expected = reference_is_simplicial(m)
            assert is_simplicial(m) == expected
            seen[expected] += 1
        assert min(seen.values()) >= 50

    def test_fails_only_on_the_top_simplex(self):
        rng = random.Random(37)
        for n in range(2, 8):
            full = make_complex(n, [range(n)])
            top = (1 << n) - 1
            for target_n in (n, n + 1):
                # the target holds every proper face of the image of the top
                vm = tuple(rng.sample(range(target_n), n))
                target = without(make_complex(target_n, [vm]), mask_of(vm))
                for m in (SimplicialMap(full, target, vm),
                          SimplicialMap(full, without(full, top), tuple(range(n)))):
                    assert not is_simplicial(m) and not reference_is_simplicial(m)
                    assert is_simplicial(SimplicialMap(without(full, top), m.target, m.vertex_map))

    def test_complex_without_vertices(self):
        empty = SimplicialComplex(0)
        for target in (empty, make_complex(2, [{0, 1}])):
            m = SimplicialMap(empty, target, ())
            assert is_simplicial(m) and reference_is_simplicial(m)
            assert is_simplicial(identity_map(target))

    def test_vertex_map_must_be_total(self):
        edge = make_complex(2, [{0, 1}])
        with pytest.raises(ValueError):
            SimplicialMap(edge, edge, (0,))
        with pytest.raises(ValueError):
            SimplicialMap(edge, edge, (0, 5))

    @pytest.mark.parametrize("vertex_map", [(0.9, "1"), (0, 1.0), ("0", "1"), (0, None),
                                            (0, True), (False, 1)])
    def test_vertex_images_must_be_integers(self, vertex_map):
        edge = make_complex(2, [{0, 1}])
        with pytest.raises(ValueError, match="vertex images must be integers"):
            SimplicialMap(edge, edge, vertex_map)

    def test_numpy_integer_images_are_kept_as_ints(self):
        np = pytest.importorskip("numpy")
        edge = make_complex(2, [{0, 1}])
        m = SimplicialMap(edge, edge, tuple(np.arange(2, dtype=np.int64)[::-1]))
        assert m.vertex_map == (1, 0) and all(type(w) is int for w in m.vertex_map)


class TestCompose:
    def test_identity_composition(self):
        edge = make_complex(2, [{0, 1}])
        i = identity_map(edge)
        assert compose(i, i) == i

    def test_collapse_then_inclusion_is_vertex_surjective(self):
        c, d, e = fig2_complexes()
        f = SimplicialMap(c, d, FIG2_MAP_C_TO_D)
        g = SimplicialMap(d, e, (0, 1, 2, 3))
        assert is_simplicial(f) and is_simplicial(g)
        h = compose(f, g)
        assert h.source == c and h.target == e
        assert is_simplicial(h)
        assert h.is_vertex_surjective()

    def test_mismatched_middle_rejected(self):
        edge = make_complex(2, [{0, 1}])
        two = make_complex(2, [])
        with pytest.raises(ValueError, match="middle"):
            compose(identity_map(edge), identity_map(two))

    def test_random_surjective_compositions_stay_simplicial(self):
        from cechstrat import dominates

        rng = random.Random(11)
        checked = 0
        while checked < 40:
            a, b, c = (random_complex(rng, 4) for _ in range(3))
            f = dominates(a, b)
            g = dominates(b, c)
            if f is None or g is None:
                continue
            h = compose(f, g)
            assert is_simplicial(h) and h.is_vertex_surjective()
            checked += 1


class TestCanonicalForm:
    def test_swapped_edge_same_key(self):
        a = make_complex(2, [{0, 1}])
        assert canonical_form(a).key == canonical_form(a).key

    def test_relabeled_path_same_key(self):
        p1 = make_complex(3, [{0, 1}, {1, 2}])
        p2 = make_complex(3, [{2, 1}, {1, 0}])
        assert canonical_form(p1).key == canonical_form(p2).key

    def test_path_differs_from_cycle(self):
        path = make_complex(3, [{0, 1}, {1, 2}])
        cycle = make_complex(3, [{0, 1}, {1, 2}, {0, 2}])
        assert canonical_form(path).key != canonical_form(cycle).key

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(30):
            cls = canonical_form(random_complex(rng))
            again = canonical_form(cls.canonical)
            assert again.key == cls.key
            assert again.canonical == cls.canonical

    @given(st.integers(0, 10**9))
    def test_invariant_under_random_relabeling(self, seed):
        rng = random.Random(seed)
        c = random_complex(rng)
        perm = list(range(c.n_vertices))
        rng.shuffle(perm)
        relabeled = make_complex(c.n_vertices, [[perm[v] for v in s] for s in c.simplices])
        assert canonical_form(relabeled).key == canonical_form(c).key

    def test_key_is_the_vertex_count_and_each_canonical_mask_in_two_bytes(self):
        # the packed key equals the per-mask big-endian join, on 1 to 8 vertices
        rng = random.Random(44)
        seen = set()
        for _ in range(120):
            c = random_complex(rng, n_max=8)
            cls = canonical_form(c)
            masks = cls.canonical.masks
            assert cls.key == bytes([c.n_vertices]) + b"".join(m.to_bytes(2, "big") for m in masks)
            assert complexes._iso_class(c.n_vertices, masks) is cls
            seen.add(c.n_vertices)
        assert seen == set(range(1, 9))

    def test_isomorphic_complexes_share_one_class_object(self):
        # the canonical representative is built once per class, not once
        # per labelling that reaches it
        p1 = make_complex(4, [{0, 1}, {1, 2}, {2, 3}])
        p2 = make_complex(4, [{3, 1}, {1, 0}, {0, 2}])
        assert p1 != p2
        assert canonical_form(p1) is canonical_form(p2)

    def test_cap_enforced(self):
        big = make_complex(9, [])
        with pytest.raises(CapExceeded):
            canonical_form(big)


class TestAreIsomorphic:
    def test_different_vertex_counts(self):
        assert not are_isomorphic(make_complex(2, []), make_complex(3, []))

    def test_relabelings_are_isomorphic(self):
        a = make_complex(4, [{0, 1}, {2, 3}])
        b = make_complex(4, [{0, 2}, {1, 3}])
        assert are_isomorphic(a, b)

    def test_distinct_structures_are_not(self):
        a = make_complex(4, [{0, 1}, {2, 3}])
        b = make_complex(4, [{0, 1}, {1, 2}])
        assert not are_isomorphic(a, b)


class TestJson:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(25):
            c = random_complex(rng)
            blob = json.dumps(c.to_json_dict())
            assert SimplicialComplex.from_json_dict(json.loads(blob)) == c

    def test_masks_round_trip(self):
        rng = random.Random(29)
        for _ in range(200):
            c = random_complex(rng)
            d = SimplicialComplex(c.n_vertices, c.masks)
            assert d == c and hash(d) == hash(c)
            assert make_complex(c.n_vertices, c.simplices) == c
            listed = sorted((list(s) for s in c.simplex_set), key=lambda s: (len(s), s))
            assert d.to_json_dict() == {"n_vertices": c.n_vertices, "simplices": listed}
            assert d.to_json_dict() == c.to_json_dict()

    def test_reader_applies_downward_closure(self):
        c = SimplicialComplex.from_json_dict(
            {"n_vertices": 3, "simplices": [[0, 1, 2]]}
        )
        assert len(c.simplices) == 7

    def test_map_round_trip(self):
        c, d, _ = fig2_complexes()
        m = SimplicialMap(c, d, FIG2_MAP_C_TO_D)
        assert SimplicialMap.from_json_dict(json.loads(json.dumps(m.to_json_dict()))) == m

    @pytest.mark.parametrize("vertex_map", [[0.9, "0"], [0, True], [0, 1.0], "01", None])
    def test_map_reader_refuses_non_integer_vertices(self, vertex_map):
        edge = make_complex(2, [{0, 1}]).to_json_dict()
        data = {"source": edge, "target": edge, "vertex_map": vertex_map}
        with pytest.raises(ValueError, match='simplicial-map JSON: "vertex_map" must be an array '
                                             'of integers'):
            SimplicialMap.from_json_dict(data)

    def test_map_reader_refuses_a_missing_field(self):
        edge = make_complex(2, [{0, 1}]).to_json_dict()
        with pytest.raises(ValueError, match="simplicial-map JSON is missing the field 'target'"):
            SimplicialMap.from_json_dict({"source": edge, "vertex_map": [0, 1]})

    def test_writer_sorts_by_dimension_then_vertices(self):
        c = make_complex(3, [{0, 1, 2}])
        listed = c.to_json_dict()["simplices"]
        assert listed == sorted(listed, key=lambda s: (len(s), s))
